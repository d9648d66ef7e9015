"""Self-tests of the census benchmark.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import skewcyc  # noqa: E402
from perfbench import layers, run, workloads  # noqa: E402
from perfbench.speed import EDGE_SAMPLES, REF_NOMINAL_S, SpeedProbe, reference_kernel  # noqa: E402
from perfbench.tracer import TimedExecutor, _resolve  # noqa: E402

PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("census_*.jsonl"))}


def test_tracing_leaves_store_files_byte_identical(tmp_path):
    skewcyc.census(54, skewcyc.Store(tmp_path / "plain"))
    with layers.new_tracer() as tracer:
        skewcyc.census(54, skewcyc.Store(tmp_path / "traced"))
    plain, traced = _files(tmp_path / "plain"), _files(tmp_path / "traced")
    assert tracer.counters["enumeration.lift_prefilter.combos"] > 0
    assert plain == traced
    for name, data in plain.items():
        n = name.split("_")[1].split(".")[0]
        assert hashlib.sha256(data).hexdigest() == PINS["census_files"][n]


def test_stage_counts_only_shrink(tmp_path):
    tracer = layers.new_tracer()
    with tracer:
        skewcyc.census(54, skewcyc.Store(tmp_path))
        skewcyc.enumerate_coset_preserving(48)
    v = layers.layer_values(tracer)
    assert v["enumeration.lift.accepted"] > 0
    assert (
        v["enumeration.lift_prefilter.combos"]
        >= v["enumeration.lift_prefilter.survivors"]
        >= v["enumeration.realize_lift.accepted"]
        >= v["enumeration.lift.accepted"]
    )
    assert v["enumeration.realize_lift.calls"] == v["enumeration.lift_prefilter.survivors"]
    assert v["enumeration.cp_search.candidates"] >= v["enumeration.cp_search.found"] > 0
    assert 0 < v["skew_core.verify.accept_ratio"] < 1


def _attribute_snapshot() -> dict:
    owners = [m for k, m in sys.modules.items() if k == "skewcyc" or k.startswith("skewcyc.")]
    owners += [_resolve(t.owner) for t in layers.TARGETS if isinstance(_resolve(t.owner), type)]
    return {
        (id(owner), attr): value for owner in owners for attr, value in list(vars(owner).items())
    }


def test_tracer_restores_every_patched_attribute():
    before = _attribute_snapshot()
    tracer = layers.new_tracer()
    with tracer:
        assert skewcyc.store.verify is skewcyc.enumeration.verify
        assert skewcyc.store.verify is not skewcyc.skew_core.verify.__wrapped__
        assert inspect.getattr_static(skewcyc.store.StoreEntry, "from_json") is not (
            before[(id(skewcyc.store.StoreEntry), "from_json")]
        )
        during = _attribute_snapshot()
        changed = [key for key in before if during[key] is not before[key]]
        assert len(changed) >= len(layers.TARGETS)
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_timed_executor_keeps_results_and_counts_tasks():
    serial = skewcyc.enumerate_coset_preserving(48)
    with ProcessPoolExecutor(max_workers=2) as pool:
        timed = TimedExecutor(pool)
        pooled = skewcyc.enumerate_coset_preserving(48, executor=timed)
    assert [p.images for p in pooled] == [p.images for p in serial]
    assert timed.tasks > 0 and timed.bytes > 0
    assert 0 < timed.task_max_s <= timed.task_sum_s


def test_wrong_pin_counts_as_failure_not_exception(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CP_ORDERS", (12, 16))
    pins = {
        "cp_images": {
            "12": workloads.images_digest(skewcyc.enumerate_coset_preserving(12)),
            "16": "0" * 64,
        }
    }
    outcome = workloads.Outcome()
    wl = workloads.CensusCp(tmp_path, pins, outcome)
    wl.phase(1)
    assert (outcome.attempted, outcome.failed) == (2, 1)

    def broken(n, *, executor=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(skewcyc, "enumerate_coset_preserving", broken)
    wl.phase(1)
    assert outcome.failed == 1 + 1 + 2  # the exception and both missing outputs


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "op1_s", "op2_s", "peak_rss_mb"}


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census_cp", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_removes_its_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) > 2 * EDGE_SAMPLES
    assert 0 < probe.wall(start, end) < end - start


def _unattributed_fails(tmp_path, monkeypatch, targets) -> bool:
    monkeypatch.setattr(layers, "TARGETS", targets)
    workdir = tmp_path / f"w{len(targets)}"
    workdir.mkdir()
    wl = _cp_workload(workdir, monkeypatch, (145,))
    failed = run.traced_run(wl)["summary"]["predictions_failed"]
    assert wl.outcome.failed == 0
    return any(text.startswith("trace.unattributed_s") for text in failed)


def test_unattributed_time_shows_an_untraced_heavy_stage(tmp_path, monkeypatch):
    # Without spans of their own, the cp base search and the verify calls
    # it makes run as self time of enumerate_coset_preserving, a glue span.
    assert not _unattributed_fails(tmp_path, monkeypatch, layers.TARGETS)
    untraced = [t for t in layers.TARGETS if t.attr not in ("_cp_base_search", "verify")]
    assert len(untraced) == len(layers.TARGETS) - 2
    assert _unattributed_fails(tmp_path, monkeypatch, untraced)


def _paired_figures(wl, which: int, inject, pairs: int = 3) -> dict[str, float]:
    """Medians of the figure and of its scale, plain and with the injected cost."""
    runs = {"plain": [], "loaded": []}
    for _ in range(pairs):
        runs["plain"].append(run.measure_phase(wl, which))
        with inject():
            runs["loaded"].append(run.measure_phase(wl, which))
    out = {}
    for key, measured in runs.items():
        out[key] = statistics.median(figure for _, figure, _ in measured)
        out[key + "_scale"] = statistics.median(
            REF_NOMINAL_S / statistics.mean(samples) for _, _, samples in measured
        )
    return out


def _cp_workload(tmp_path, monkeypatch, orders) -> workloads.Workload:
    monkeypatch.setattr(workloads, "CP_ORDERS", orders)
    pins = {"cp_images": {str(n): PINS["cp_images"][str(n)] for n in orders}}
    wl = workloads.CensusCp(tmp_path, pins, workloads.Outcome())
    wl.build()
    return wl


def test_serial_rescaling_keeps_an_injected_cost(tmp_path, monkeypatch):
    wl = _cp_workload(tmp_path, monkeypatch, (145,))
    original = skewcyc.enumerate_coset_preserving
    kernels = 200  # REF_NOMINAL_S each at nominal speed

    @contextlib.contextmanager
    def inject():
        def slower(n, *, executor=None):
            result = original(n, executor=executor)
            for _ in range(kernels):
                reference_kernel()
            return result

        monkeypatch.setattr(skewcyc, "enumerate_coset_preserving", slower)
        yield
        monkeypatch.setattr(skewcyc, "enumerate_coset_preserving", original)

    got = _paired_figures(wl, 1, inject)
    assert wl.outcome.failed == 0
    added = kernels * REF_NOMINAL_S
    assert 0.75 * added < got["loaded"] - got["plain"] < 1.25 * added


def test_pooled_figure_keeps_the_callers_own_work(tmp_path, monkeypatch):
    # The caller spins on one core while both workers run.  Its CPU time
    # must show in the figure, not be cancelled by slower worker samples.
    wl = _cp_workload(tmp_path, monkeypatch, (145, 146))
    original = skewcyc.enumerate_coset_preserving
    spun = []

    @contextlib.contextmanager
    def inject():
        def busy_caller(n, *, executor=None):
            done = threading.Event()

            def spin():
                start = time.thread_time()
                while not done.is_set():
                    sum(range(1000))
                spun.append(time.thread_time() - start)

            spinner = threading.Thread(target=spin)
            spinner.start()
            try:
                return original(n, executor=executor)
            finally:
                done.set()
                spinner.join()

        monkeypatch.setattr(skewcyc, "enumerate_coset_preserving", busy_caller)
        yield
        monkeypatch.setattr(skewcyc, "enumerate_coset_preserving", original)

    got = _paired_figures(wl, 2, inject)
    assert wl.outcome.failed == 0
    added = statistics.median(spun) * len(workloads.CP_ORDERS) * got["loaded_scale"]
    assert got["loaded"] - got["plain"] > 0.75 * added
