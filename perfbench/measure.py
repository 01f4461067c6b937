"""Measurement helpers shared by the workloads: metric specs, percentiles,
the host-speed clock, peak memory and the import-time probe."""

from __future__ import annotations

import bisect
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str  # "higher" | "lower"


#: Printed with ``--trace 0``: what a user of the system sees.
END_TO_END = (
    MetricSpec("setup_s", "s", "lower"),
    MetricSpec("ops_per_s", "1/s", "higher"),
    MetricSpec("latency_p50_ms", "ms", "lower"),
    MetricSpec("peak_rss_mb", "MB", "lower"),
)

#: A tail percentile is reported only with at least this many samples
#: beyond it, so p90 needs 100 samples.  The median is always reported.
MIN_TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (nearest rank) of a non-empty sample.

    Raises ``ValueError`` for a tail percentile (``q > 50``) with fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond it.
    """
    count = len(samples)
    if count == 0:
        raise ValueError("no samples")
    beyond = count * (100.0 - q) / 100.0
    if q > 50 and beyond < MIN_TAIL_SAMPLES - 1e-9:
        raise ValueError(
            f"p{q:g} needs at least {MIN_TAIL_SAMPLES} samples beyond it; got {count} samples"
        )
    rank = max(1, math.ceil(q * count / 100))
    return sorted(samples)[rank - 1]


#: Iterations of the host-speed reference loop.
REFERENCE_LOOP = 20_000
#: The reference loop's time in seconds on the development host (a shared
#: 2-vCPU Xeon VM) in its fast stretches.  Every reported time is scaled to
#: a host that runs the loop this fast.
REFERENCE_S = 0.00125
#: Wall time between two runs of the reference loop.
PERIOD_S = 0.1
#: Reference samples taken within this many seconds of an interval set the
#: host's speed during it.
WINDOW_S = 0.5


def _reference_loop() -> None:
    total = 0
    for index in range(REFERENCE_LOOP):
        total += index * index % 7


class HostClock:
    """Wall time, corrected for how fast the host ran at the time.

    A shared host runs this process at speeds up to 1.75x apart, for
    seconds to tens of minutes at a time, with CPU time tracking wall time.
    While :meth:`running`, a timer signal interrupts the program every
    :data:`PERIOD_S` seconds to time a fixed pure-Python loop.  An
    interval's corrected duration is its wall duration, less the loop runs
    inside it, times :data:`REFERENCE_S` over the mean loop time measured
    within :data:`WINDOW_S` of it.  The loop uses no code of the program,
    so a change to the program moves corrected times as it would move wall
    times on a steady host.
    """

    def __init__(self) -> None:
        #: Start and duration of every reference loop run, in time order.
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        _reference_loop()
        self.durations.append(time.perf_counter() - started)
        self.starts.append(started)

    @contextmanager
    def running(self):
        """Sample the host's speed throughout the block."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, start: float, end: float) -> list[float]:
        count = len(self.starts)
        low = bisect.bisect_left(self.starts, start, 0, count)
        return self.durations[low:bisect.bisect_right(self.starts, end, low, count)]

    def reference_ms(self, start: float, end: float) -> float:
        """Mean reference loop time in ``[start, end]``, in ms (a diagnostic)."""
        near = self._between(start, end)
        return 1000.0 * statistics.fmean(near) if near else float("nan")

    def speed(self, start: float, end: float) -> float:
        """Reference loop time over the mean loop time in ``[start, end]``:
        below 1 when the host ran slow.  Without a sample in the interval,
        the next sample (or the last one) stands in."""
        near = self._between(start, end)
        if not near:
            index = min(bisect.bisect_left(self.starts, end), len(self.starts) - 1)
            near = self.durations[index:index + 1]
        return REFERENCE_S / statistics.fmean(near)

    def corrected(self, start: float, end: float) -> float:
        """The interval's duration at the reference host speed, in s."""
        busy = end - start - sum(self._between(start, end))
        return busy * self.speed(start - WINDOW_S, end + WINDOW_S)

    def time(self, function, *args, **kwargs):
        """Call ``function``; its result and its corrected duration in s."""
        started = time.perf_counter()
        result = function(*args, **kwargs)
        return result, self.corrected(started, time.perf_counter())


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro.dataaug.pipeline, repro.eval.verifier, repro.model.assertsolver_model"
)


def import_probe_s(src: Path, clock: HostClock, repeats: int = 5) -> float:
    """Median corrected time of a fresh interpreter importing the package.

    This is the part of set-up every process pays before its first
    operation; a fresh interpreter per repeat makes it repeatable.
    """
    command = [sys.executable, "-c", IMPORT_PROBE, str(src)]
    times = [
        clock.time(subprocess.run, command, check=True, timeout=120)[1] for _ in range(repeats)
    ]
    return statistics.median(times)
