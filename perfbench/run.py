"""Census benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload census_lift --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --full-census            # untimed: census --max 161 vs pins

Run from the repository root.  The program is imported from `src/` of the
same checkout.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it names
every figure (median, highest sample, sample count) by its workload's own
phase names.  A noise record for every repetition goes to standard error.
The seed is recorded and alternates the phase order; it changes no input.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

sys.path.insert(0, str(ROOT))
from perfbench.speed import REF_NOMINAL_S, SpeedProbe, cpu_s, worker_samples  # noqa: E402

SETUP_BUILDS = 3  # input builds per run; setup_s reports the median
IMPORT_PROBES = 5  # fresh-interpreter imports of skewcyc per run


def _fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    if not (SRC / "skewcyc" / "__init__.py").is_file():
        _fail(f"no skewcyc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import skewcyc

    if Path(skewcyc.__file__).resolve().parent != SRC / "skewcyc":
        _fail(f"imported skewcyc from {skewcyc.__file__}, not from {SRC}")


def _source_id() -> dict:
    """The commit if the checkout is a git repository, else a digest of src/."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "skewcyc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def _loadavg() -> str | None:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return None


def _import_probe() -> tuple[float, float]:
    """Start a fresh interpreter that imports skewcyc; return (wall, rescaled) seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    with SpeedProbe(during=False) as probe:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import skewcyc"], cwd=ROOT, env=env, check=True, timeout=120
        )
        end = time.perf_counter()
    return probe.wall(start, end), probe.rescale(start, end)


def _summary(samples: list[tuple[float, float]]) -> dict:
    walls = [w for w, _ in samples]
    scaled = [r for _, r in samples]
    return {
        "median": statistics.median(scaled),
        "max": max(scaled),
        "wall_median": statistics.median(walls),
        "wall_max": max(walls),
        "n": len(samples),
        "unit": "s",
    }


def measure_phase(wl, which: int) -> tuple[float, float, list[float]]:
    """Run one phase; return its wall seconds, its figure and the kernel samples.

    A serial phase's figure is its wall time at nominal speed.  A pooled
    phase's figure is the CPU time of the caller and the workers over the
    pool's life, less the workers' own samples, at nominal speed.
    """
    if which in wl.serial_phases():
        with SpeedProbe() as probe:
            start, end = wl.phase(which)
        return probe.wall(start, end), probe.rescale(start, end), probe.samples
    # pooled: the workers sample the machine speed
    wl.sample_dir = Path(tempfile.mkdtemp(dir=wl.workdir))
    try:
        start, end = wl.phase(which)
        worker = worker_samples(wl.sample_dir)
    finally:
        shutil.rmtree(wl.sample_dir)
        wl.sample_dir = None
    scale = REF_NOMINAL_S / statistics.mean(worker) if worker else 1.0
    return end - start, (wl.pool_cpu_s - sum(worker)) * scale, worker


def timed_run(wl, seed: int, seconds: float, context: dict) -> dict:
    builds = []
    for _ in range(SETUP_BUILDS):
        with SpeedProbe() as probe:
            start = time.perf_counter()
            wl.build()
            end = time.perf_counter()
        builds.append((probe.wall(start, end), probe.rescale(start, end)))

    samples = {1: [], 2: []}
    begin = time.perf_counter()
    rep = 0
    while True:
        load_before, cpu_before = _loadavg(), cpu_s()
        kernel_s = []
        rep_start = time.perf_counter()
        for which in wl.phase_order((seed + rep) % 2 == 1):
            wall, rescaled, kernel = measure_phase(wl, which)
            samples[which].append((wall, rescaled))
            kernel_s += kernel
        rep_wall = time.perf_counter() - rep_start
        noise = {
            "workload": wl.name,
            "seed": seed,
            "rep": rep,
            "wall_s": rep_wall,
            "cpu_s": cpu_s() - cpu_before,
            "loadavg_before": load_before,
            "loadavg_after": _loadavg(),
            "speed": REF_NOMINAL_S / statistics.mean(kernel_s),
            **context,
        }
        print("noise " + json.dumps(noise), file=sys.stderr)
        rep += 1
        if time.perf_counter() - begin + rep_wall > seconds:
            break

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + wl.pool_rss_kb
    probes = [_import_probe() for _ in range(IMPORT_PROBES)]
    imports, built = _summary(probes), _summary(builds)
    setup = imports["median"] + built["median"]
    names = wl.phase_names
    summary = {
        "setup_s": {"median": setup, "unit": "s", "import_s": imports, "build_s": built},
        names[0]: _summary(samples[1]),
        names[1]: _summary(samples[2]),
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "op1_s": {"value": summary[names[0]]["median"], "unit": "s"},
        "op2_s": {"value": summary[names[1]]["median"], "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }
    return {"summary": summary, "metrics": metrics}


def traced_run(wl) -> dict:
    from perfbench import layers

    wl.build()
    order = [w for w in wl.phase_order(False) if w in wl.serial_phases()]
    plain = 0.0
    for which in order:
        start, end = wl.phase(which)
        plain += end - start

    tracer = layers.new_tracer()
    intervals, phase_self = {}, {}
    with tracer:
        for which in order:
            before = dict(tracer.self_s)
            intervals[which] = wl.phase(which)
            phase_self[which] = {
                k: v - before.get(k, 0.0) for k, v in tracer.self_s.items()
            }
    if 2 not in wl.serial_phases():
        wl.phase(2, pooled_trace=True)  # executor figures, without spans

    wall = sum(end - start for start, end in intervals.values())
    values = layers.layer_values(tracer, wl.executor_wrapper)
    values["trace.unattributed_s"] = layers.unattributed_s(tracer, intervals.values())
    values["trace.overhead_ratio"] = wall / plain if plain else 0.0
    outcome = wl.outcome
    values["error_rate"] = outcome.failed / outcome.attempted if outcome.attempted else 0.0

    checks = predictions(wl.name, values, intervals, phase_self, wall)
    for ok, text in checks:
        print(f"prediction {'holds' if ok else 'FAILS'}: {text}", file=sys.stderr)
    failed_checks = [text for ok, text in checks if not ok]

    spans_path = wl.workdir.parent / f"spans-{wl.name}.jsonl"
    tracer.write_spans(str(spans_path))
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _better in layers.PER_LAYER
    }
    summary = {
        "traced_wall_s": wall,
        "untraced_wall_s": plain,
        "spans": len(tracer.span_start),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "predictions_failed": failed_checks,
    }
    return {"summary": summary, "metrics": metrics}


def predictions(name: str, values: dict, intervals: dict, phase_self: dict, wall: float):
    """The layer each workload is meant to isolate, checked on every traced run."""

    def share(which: int, *spans: str) -> float:
        start, end = intervals[which]
        return sum(phase_self[which].get(s, 0.0) for s in spans) / (end - start)

    checks = [
        (
            values["trace.unattributed_s"] <= 0.05 * wall,
            f"trace.unattributed_s {values['trace.unattributed_s']:.3f} s <= 5% of {wall:.2f} s",
        )
    ]
    if name == "census_lift":
        frac = share(1, "enumeration.lift_prefilter")
        checks.append((frac >= 0.60, f"lift_prefilter is {frac:.0%} (>= 60%) of census_s"))
    elif name == "census_cp":
        frac = share(1, "enumeration.lift_prefilter")
        checks.append((frac <= 0.01, f"lift_prefilter is {frac:.1%} (<= 1%) of cp_search_s"))
    elif name == "store_roundtrip":
        frac = share(1, "skew_core.verify", "skew_core.power_table")
        checks.append((frac >= 0.85, f"verify with its power table is {frac:.0%} (>= 85%) of load_s"))
    elif name == "check_suite":
        frac = share(1, "skew_product.check_group")
        checks.append((frac >= 0.50, f"check_group is {frac:.0%} (>= 50%) of check_s"))
    return checks


def full_census() -> int:
    """Untimed: compute census 2..161 and compare every file with its pin."""
    import skewcyc.cli
    from perfbench.workloads import JOBS, file_digests, images_digest

    pins = json.loads((HERE / "pins.json").read_text())
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=work))
    try:
        start = time.perf_counter()
        argv = ["census", "--max", "161", "--jobs", str(JOBS), "--store", str(directory)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = skewcyc.cli.main(argv)
        elapsed = time.perf_counter() - start
        got = file_digests(directory)
        bad = [n for n in range(2, 162) if got.get(n) != pins["census_files"][str(n)]]
        store = skewcyc.Store(directory)
        bad_cp = [
            n
            for n in range(145, 162)
            if n not in bad
            and images_digest([p for p in store.load(n).morphisms if p.coset_preserving])
            != pins["cp_images"][str(n)]
        ]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(
        json.dumps(
            {
                "census_exit": code,
                "seconds": elapsed,
                "files_checked": 160,
                "files_differing": bad,
                "cp_lists_differing": bad_cp,
            }
        )
    )
    return 0 if code == 0 and not bad and not bad_cp else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-census", action="store_true")
    args = parser.parse_args()

    _import_program()
    if args.full_census:
        return full_census()

    from perfbench.workloads import CLASSES, Outcome

    if args.workload not in CLASSES:
        parser.error(f"--workload must be one of {', '.join(CLASSES)}")
    pins = json.loads((HERE / "pins.json").read_text())
    context = {
        **_source_id(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "nproc": os.cpu_count(),
    }
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work))
    outcome = Outcome()
    try:
        wl = CLASSES[args.workload](workdir, pins, outcome)
        if args.trace:
            result = traced_run(wl)
        else:
            result = timed_run(wl, args.seed, args.seconds, context)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "error_rate": {"value": error_rate, "unit": "ratio"},
                "errors": outcome.errors,
                **context,
                **result["summary"],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
