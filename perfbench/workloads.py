"""The four census workloads.

Each workload is an exact, deterministic computation driven through public
entry points (`census`, `enumerate_coset_preserving`, `Store`,
`skewcyc.cli.main`, `skewcyc.invariants.run_suite`) by one caller in a closed
loop.  A repetition runs two timed phases, reported as the end-to-end
metrics `op1_s` and `op2_s`; `PHASES` gives each phase its own name.

Every operation's output is compared with the digests pinned in
`pins.json`.  An operation is one order's output or one CLI command; it
fails on an exception, a nonzero exit code, a digest mismatch or a reported
violation, and a failure is counted, never raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import multiprocessing
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import skewcyc
import skewcyc.cli
import skewcyc.invariants

from .speed import cpu_s, start_worker_sampling
from .tracer import TimedExecutor

LIFT_TARGET = 81  # census(81): its lift pre-filter dominates (see README.md)
CP_ORDERS = tuple(range(145, 149))
ROUNDTRIP_MAX = 60
CHECK_MAX = 32
JOBS = 2  # the machine this benchmark was tuned on has two cores

WORKLOADS = {
    "census_lift": "census(81) from an empty store, serial and with a 2-worker pool: "
    "the numpy lift pre-filter is most of the time, so lift changes show here",
    "census_cp": "coset-preserving search for n in 145..148, serial and pooled: no lift and "
    "no store, the control for lift changes and the reject path of verify",
    "store_roundtrip": "save the census 2..60, then a cold `table` that re-verifies every "
    "entry: store encode and decode plus accept-only verify, no enumeration",
    "check_suite": "`check --max 32` cold through the CLI, then the invariant suite on a "
    "loaded store: the only workload that runs invariants and skew_product",
}

# (op1, op2) names of the two timed phases of each workload
PHASES = {
    "census_lift": ("census_s", "census_jobs2_cpu_s"),
    "census_cp": ("cp_search_s", "cp_search_jobs2_cpu_s"),
    "store_roundtrip": ("load_s", "save_s"),
    "check_suite": ("check_s", "check_warm_s"),
}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def images_digest(morphisms) -> str:
    """Digest of a sorted image list, one comma-separated line per morphism."""
    return sha256_text("".join(",".join(map(str, phi.images)) + "\n" for phi in morphisms))


def file_digests(directory: Path) -> dict[int, str]:
    return {
        int(path.stem.split("_")[1]): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.glob("census_*.jsonl")
    }


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def _pool(sample_dir: Path | None) -> ProcessPoolExecutor:
    # the default start method, as `census --jobs` uses it
    if sample_dir is None:
        return ProcessPoolExecutor(max_workers=JOBS)
    return ProcessPoolExecutor(
        max_workers=JOBS, initializer=start_worker_sampling, initargs=(str(sample_dir),)
    )


def _children_hwm_kb() -> int:
    """Sum of the peak resident sizes of the live pool workers."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


class Workload:
    """Input build plus two timed phases; subclasses fill in the operations."""

    name = ""

    def __init__(self, workdir: Path, pins: dict, outcome: Outcome):
        self.workdir = workdir
        self.pins = pins
        self.outcome = outcome
        self.phase_names = PHASES[self.name]
        self.pool_rss_kb = 0
        self.pool_cpu_s = 0.0  # CPU time of the caller and workers in the last pool
        self.executor_wrapper: TimedExecutor | None = None
        # where pool workers write machine-speed samples; None: no sampling
        self.sample_dir: Path | None = None

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.workdir))

    def build(self) -> None:
        """Make the workload's input; called several times, the last one is kept."""

    def phase(self, which: int, pooled_trace: bool = False) -> tuple[float, float]:
        """Run phase 1 or 2 once; return the (start, end) of its timed interval."""
        raise NotImplementedError

    def serial_phases(self) -> tuple[int, ...]:
        """Phases that run in this process only (the traced run replays these)."""
        return (1, 2)

    def phase_order(self, flip: bool) -> tuple[int, int]:
        """Alternating the order lands order effects on both phases."""
        return (2, 1) if flip else (1, 2)

    def run_pool(self, fn, traced: bool):
        """Run fn(executor) on a fresh pool; pool start and stop are part of the work."""
        cpu_before = cpu_s()
        with _pool(self.sample_dir) as pool:
            executor = TimedExecutor(pool) if traced else pool
            result = fn(executor)
            self.pool_rss_kb = max(self.pool_rss_kb, _children_hwm_kb())
        self.pool_cpu_s = cpu_s() - cpu_before  # the workers have ended here
        if traced:
            self.executor_wrapper = executor
        return result


class CensusLift(Workload):
    name = "census_lift"

    def build(self) -> None:
        # a smaller lift, so lazy set-up is done before either phase order
        skewcyc.census(54, skewcyc.MemoryStore())

    def serial_phases(self) -> tuple[int, ...]:
        return (1,)

    def phase_order(self, flip: bool) -> tuple[int, int]:
        # Pool first: workers forked after a serial census(81) inherit the
        # parent's grown heap and ran about 20% faster than workers forked
        # from a fresh `census --jobs 2` process.
        return (2, 1)

    def phase(self, which: int, pooled_trace: bool = False) -> tuple[float, float]:
        directory = self.fresh_dir()
        start = time.perf_counter()
        try:
            store = skewcyc.Store(directory)
            if which == 1:
                skewcyc.census(LIFT_TARGET, store)
            else:
                self.run_pool(
                    lambda ex: skewcyc.census(LIFT_TARGET, store, executor=ex), pooled_trace
                )
            end = time.perf_counter()
            self._check_files(directory)
        except Exception as exc:  # a failed census fails every order it owed
            end = time.perf_counter()
            for n in self.pins["census_lift_orders"]:
                self.outcome.record(False, f"census({LIFT_TARGET}) order {n}: {exc!r}")
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return start, end

    def _check_files(self, directory: Path) -> None:
        got = file_digests(directory)
        expected = self.pins["census_lift_orders"]
        for n in expected:
            self.outcome.record(
                got.get(n) == self.pins["census_files"][str(n)],
                f"census_{n}.jsonl digest differs from the pin",
            )
        for n in sorted(set(got) - set(expected)):
            self.outcome.record(False, f"census_{n}.jsonl was not expected")


class CensusCp(Workload):
    name = "census_cp"

    def build(self) -> None:
        # a smaller search, so lazy set-up is done before either phase order
        skewcyc.enumerate_coset_preserving(96)

    def serial_phases(self) -> tuple[int, ...]:
        return (1,)

    def phase(self, which: int, pooled_trace: bool = False) -> tuple[float, float]:
        results = {}

        def search(ex):
            for n in CP_ORDERS:
                results[n] = skewcyc.enumerate_coset_preserving(n, executor=ex)

        start = time.perf_counter()
        try:
            if which == 1:
                search(None)
            else:
                self.run_pool(search, pooled_trace)
        except Exception as exc:
            self.outcome.record(False, f"enumerate_coset_preserving: {exc!r}")
        end = time.perf_counter()
        for n in CP_ORDERS:
            self.outcome.record(
                n in results and images_digest(results[n]) == self.pins["cp_images"][str(n)],
                f"cp images of Z_{n} differ from the pin",
            )
        return start, end


class StoreRoundtrip(Workload):
    name = "store_roundtrip"

    def __init__(self, *args):
        super().__init__(*args)
        self.records = []
        self.saved: Path | None = None

    def build(self) -> None:
        memory = skewcyc.MemoryStore()
        self.records = [skewcyc.census(n, memory) for n in range(2, ROUNDTRIP_MAX + 1)]

    def phase_order(self, flip: bool) -> tuple[int, int]:
        return (2, 1)  # the load reads what this repetition saved

    def phase(self, which: int, pooled_trace: bool = False) -> tuple[float, float]:
        return self._save() if which == 2 else self._load()

    def _save(self) -> tuple[float, float]:
        if self.saved is not None:
            shutil.rmtree(self.saved, ignore_errors=True)
        directory = self.saved = self.fresh_dir()
        start = time.perf_counter()
        try:
            store = skewcyc.Store(directory)
            for record in self.records:
                store.save(record)
        except Exception as exc:
            self.outcome.record(False, f"Store.save: {exc!r}")
        end = time.perf_counter()
        got = file_digests(directory)
        for n in range(2, ROUNDTRIP_MAX + 1):
            self.outcome.record(
                got.get(n) == self.pins["census_files"][str(n)],
                f"saved census_{n}.jsonl digest differs from the pin",
            )
        return start, end

    def _load(self) -> tuple[float, float]:
        argv = ["table", "--from", "2", "--to", str(ROUNDTRIP_MAX), "--store", str(self.saved)]
        start, end, code, text = _cli(argv)
        self.outcome.record(
            code == 0 and sha256_text(text) == self.pins["table_stdout"],
            f"`table --to {ROUNDTRIP_MAX}` exit {code} or output differs from the pin",
        )
        return start, end


class CheckSuite(Workload):
    name = "check_suite"

    def __init__(self, *args):
        super().__init__(*args)
        self.directory: Path | None = None
        self.loaded = None

    def build(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
        self.directory = self.fresh_dir()
        store = skewcyc.Store(self.directory)
        for n in range(2, CHECK_MAX + 1):
            skewcyc.census(n, store)
        # the warm phase checks a store whose records are already in memory
        self.loaded = skewcyc.Store(self.directory)
        for n in range(2, CHECK_MAX + 1):
            self.loaded.load(n)

    def phase(self, which: int, pooled_trace: bool = False) -> tuple[float, float]:
        if which == 1:
            argv = ["check", "--max", str(CHECK_MAX), "--store", str(self.directory)]
            start, end, code, text = _cli(argv)
            self.outcome.record(
                code == 0 and sha256_text(text) == self.pins["check_stdout"],
                f"`check --max {CHECK_MAX}` exit {code} or output differs from the pin",
            )
            return start, end
        start = time.perf_counter()
        try:
            violations = skewcyc.invariants.run_suite(self.loaded, CHECK_MAX)
        except Exception as exc:
            violations = [exc]
        end = time.perf_counter()
        self.outcome.record(not violations, f"run_suite reported {violations[:3]}")
        return start, end


def _cli(argv: list[str]) -> tuple[float, float, int, str]:
    """Run one CLI command in-process; return (start, end, exit code, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = skewcyc.cli.main(argv)
    except Exception:
        code = -1
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    return start, time.perf_counter(), code, out.getvalue()


CLASSES = {
    cls.name: cls for cls in (CensusLift, CensusCp, StoreRoundtrip, CheckSuite)
}
