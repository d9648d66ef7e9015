"""Rescaling wall times to a fixed machine speed.

On a shared two-core machine the speed of one core swings by up to 1.7x
within seconds, as other tenants load the hardware it shares.  A fixed
pure-Python reference kernel, which calls nothing in `skewcyc`, is timed
before, during and after each timed interval.  The interval's wall time is
then rescaled by REF_NOMINAL_S / (mean reference time): the figure is the
wall time the interval would take on a core that runs the reference kernel
in REF_NOMINAL_S.  The mean, not the median, because an interval's wall time
grows with the time average of the slowdown, which evenly spaced samples
estimate by their mean; on the tuning machine it also gave the smaller
spread.  Raw wall times are reported next to the rescaled ones.

During a serial interval a SIGALRM timer runs the kernel every
SAMPLE_INTERVAL_S; the time spent in those samples is taken out of the
interval before rescaling.  A short interval in another process (the
import probe) is sampled before and after only.

A pooled interval is sampled inside the pool workers only
(`start_worker_sampling` is the pool initializer): a sample in the waiting
caller would compete with the workers for the two cores.  A worker times
the kernel by its thread's CPU clock, and the pooled figure is CPU time:
that of the caller and the workers over the pool's life, less the samples,
rescaled by their mean.  Wall-clock samples in the workers slow down when
the caller's own CPU work (pickling, unpickling, merging) preempts them,
so rescaling the wall time by them cancelled a third to a half of that
work out of the figure; and the pooled wall time swings with idle time the program does
not cause (every third 2.5-second census_cp pool sat idle 1 core-second
longer).  On 30 pooled census_cp runs the quartile distance over the median
was 20% for the raw wall time, 12% for it rescaled by wall-clock samples,
24% by CPU-clock samples, and 3.4% for the CPU-time figure.  The figure
leaves out the time the cores sit idle in the pool (waits, imbalance);
the traced run's executor figures and the raw wall time cover that.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import struct
import time
from pathlib import Path

REF_NOMINAL_S = 0.0025  # the kernel's time on an idle core of the tuning machine
SAMPLE_INTERVAL_S = 0.1
EDGE_SAMPLES = 3  # kernel runs before and after every interval

_PERM = tuple((37 * i + 11) % 211 for i in range(211))


def reference_kernel(clock=time.perf_counter) -> float:
    """Time a fixed permutation-power loop by clock; return its seconds.

    The garbage collector is off inside, so that no collection of the
    program's heap lands in a sample.
    """
    gc.disable()
    try:
        start = clock()
        row = tuple(range(211))
        seen = {}
        for k in range(300):
            row = tuple(_PERM[x] for x in row)
            seen[row] = k
        return clock() - start
    finally:
        gc.enable()


def cpu_s() -> float:
    """CPU seconds of this process and of its children that have ended."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def start_worker_sampling(directory: str) -> None:
    """Pool initializer: append a kernel time to a per-worker file every interval."""
    fd = os.open(
        os.path.join(directory, f"speed-{os.getpid()}"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o644,
    )

    def tick(signum, frame):
        os.write(fd, struct.pack("d", reference_kernel(time.thread_time)))

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)


def worker_samples(directory: Path) -> list[float]:
    """Every kernel time the pool workers wrote under directory."""
    out: list[float] = []
    for path in sorted(directory.glob("speed-*")):
        data = path.read_bytes()
        out.extend(v for (v,) in struct.iter_unpack("d", data[: len(data) - len(data) % 8]))
    return out


class SpeedProbe:
    """Samples the reference kernel around, and if `during`, inside a block."""

    def __init__(self, during: bool = True):
        self.during = during
        self.samples: list[float] = []
        self.handler_spans: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_kernel())
        self.handler_spans.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedProbe":
        self.samples.extend(reference_kernel() for _ in range(EDGE_SAMPLES))
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(reference_kernel() for _ in range(EDGE_SAMPLES))

    def wall(self, start: float, end: float) -> float:
        """Wall seconds of [start, end], less the samples taken inside it."""
        sampling = sum(
            max(0.0, min(end, t1) - max(start, t0)) for t0, t1 in self.handler_spans
        )
        return end - start - sampling

    def rescale(self, start: float, end: float) -> float:
        """`wall(start, end)` at the nominal speed."""
        return self.wall(start, end) * REF_NOMINAL_S / statistics.mean(self.samples)
