"""Machine-speed sampling that the benchmark's timings are scaled by.

The benchmark runs on shared virtual machines whose speed switches, from
one second to the next, between levels up to 1.8x apart, for wall and CPU
time alike. A fixed pure-Python probe moves with it. So every timed
interval is cut into short segments by running the probe at its start, at
its end and, from a timer signal, every PERIOD_S in between; each segment's
wall time is scaled by REFERENCE_S over the probes at its two ends, and the
probes' own time is left out. The probe is the benchmark's own code and
calls nothing of the library, so a change to the library moves the scaled
times as it moves the wall times, while the machine's speed largely drops
out of them.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# probe time on the reference machine (the median on a 2-vCPU Xeon VM, Python 3.11)
REFERENCE_S = 0.00085
PERIOD_S = 0.025

_POINTS = [(Fraction(7 * i + 3, 11 + i % 5), Fraction(5 * i * i % 17 + 1, 3 + i % 4)) for i in range(16)]


def _work() -> int:
    # the library's mix: exact cross products, tuples, a dict and a sort
    seen = {}
    for i in range(len(_POINTS) - 2):
        (ax, ay), (bx, by) = _POINTS[i], _POINTS[i + 1]
        for cx, cy in _POINTS[i + 2:i + 6]:
            c = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            seen[(i, c)] = c > 0
    return len(sorted(seen, key=lambda k: k[1]))


def probe() -> float:
    """Seconds one fixed piece of work takes now, with the garbage collector off.

    The collector is off so that the library's live objects, which a
    collection would scan, do not slow the probe: only the machine does.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times one interval at a time, in wall seconds and in reference seconds."""

    def __init__(self):
        self._marks: list[tuple[float, float, float]] = []  # (start, end, probe seconds)

    def _mark(self, *_):
        t0 = time.perf_counter()
        p = probe()
        self._marks.append((t0, time.perf_counter(), p))

    def start(self, t0: float | None = None, probe_s: float | None = None):
        """Start an interval now, or at perf_counter time t0 with the probe taken then."""
        if t0 is None:
            self._marks = []
            self._mark()
        else:
            self._marks = [(t0, t0, probe_s)]
        signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple[float, float]:
        """End the interval: (wall seconds, reference seconds), probes left out."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        t1 = time.perf_counter()
        self._marks.append((t1, t1, probe()))
        wall = ref = 0.0
        for (_, a_end, a_p), (b_start, _, b_p) in zip(self._marks, self._marks[1:]):
            wall += b_start - a_end
            ref += (b_start - a_end) * REFERENCE_S * 2 / (a_p + b_p)
        return wall, ref
