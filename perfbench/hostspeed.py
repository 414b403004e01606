"""Host-speed calibration: rescale wall times to a fixed reference speed.

The shared 2-core host this benchmark was defined on changes speed by up to
2x and holds each speed for seconds to minutes (see README.md), far more
than the changes the benchmark must resolve.  So while a pass runs, an
interval timer interrupts it every PROBE_INTERVAL_S and runs a fixed
pure-Python probe.  Work is timed on a clock that leaves the probes out,
and a stretch of work is rescaled by REFERENCE_PROBE_S over the probe
times measured during and around it: the time it would have taken at the
reference speed.  The probe shares no code with the package, so a change to
the package moves the work and leaves the probe alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
#: the probe's duration at the reference speed; on the machine the benchmark
#: was defined on, the probe took 1.3 to 2.6 ms as the host's speed drifted
REFERENCE_PROBE_S = 0.0015


def _walk(depth: int, state: int) -> int:
    if depth == 0:
        return 1
    total = 0
    for c in range(3):
        if state >> c & 1 and depth & 1:
            continue
        total += _walk(depth - 1, (state | 1 << c) ^ depth)
    return total


def probe_seconds() -> float:
    """Time three short walks and keep the fastest, so that one
    interruption of the probe does not read as a slow host."""
    fastest = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _walk(10, 0)
        fastest = min(fastest, time.perf_counter() - t0)
    return 3 * fastest


class HostSpeed:
    """Probe samples, and a clock that excludes the time spent in probes.

    As a context manager it runs the probe from SIGALRM, so use it only in
    the main thread.
    """

    def __init__(self):
        self.marks: list[float] = []      # work-clock reading at each probe
        self.durations: list[float] = []
        self.total = 0.0                  # wall seconds spent in probes

    def clock(self) -> float:
        """Wall-clock seconds less the time spent in probes so far."""
        while True:
            before = self.total
            now = time.perf_counter()
            if self.total == before:
                return now - before

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        duration = probe_seconds()
        end = time.perf_counter()
        self.marks.append(start - self.total)
        self.durations.append(duration)
        self.total += end - start

    def __enter__(self) -> "HostSpeed":
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host speed measured by the probes during
        [start, end] on the work clock and the one on either side."""
        lo = bisect.bisect_left(self.marks, start)
        hi = bisect.bisect_right(self.marks, end)
        return REFERENCE_PROBE_S / statistics.fmean(self.durations[max(lo - 1, 0):hi + 1])

    def typical_factor(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.durations)
