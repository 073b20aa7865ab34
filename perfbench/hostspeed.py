"""Host-speed calibration: report host times at a fixed reference speed.

The benchmark host is shared.  Its speed for single-threaded Python
drifts by tens of percent over minutes, and alternates between fast and
slow phases lasting from a fraction of a second to minutes, with no steal
time visible to the guest.  A fixed pure-Python loop run between chunks
of work tracks that drift, so each raw host time is scaled by
``REF_NS / (calibration time nearest to it)``: the result is the time the
work would take on a host where one calibration pass takes ``REF_NS``.
The raw wall-clock values are reported beside the scaled ones.

A sample is the geometric mean of two loops' times: plain integer
arithmetic, and calls with attribute, list and dict reads.  Measured
against fixed units of the program's own work (a net-tx chunk, one
module-churn load cycle) across the host's phases, the integer loop
slows down less than the program does (the program's log-time moves
about 1.1-1.5 times as far) and the call loop more (0.6-0.9 times), on
every workload; their geometric mean tracks the program about 1:1.
Loops that allocate and keep many objects swing about twice as far as
the program, so the calibration keeps no objects.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter_ns

#: One calibration sample on the reference host, in ns (about the fast
#: phase of a 2-vCPU Xeon VM at 2.0 GHz running Python 3.11).
REF_NS = 360_000
_ARITH_ITERATIONS = 5000
_CALL_ITERATIONS = 1600


class _Box:
    __slots__ = ("w",)

    def __init__(self) -> None:
        self.w = 3


_BOX = _Box()
_LIST = list(range(64))
_DICT = {i: i * 3 for i in range(64)}


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def _arith_loop() -> int:
    t0 = perf_counter_ns()
    acc = 0
    for i in range(_ARITH_ITERATIONS):
        acc = (acc + i * 7) & 0xFFFF
    return perf_counter_ns() - t0


def _call_loop() -> int:
    box, lst, dct = _BOX, _LIST, _DICT
    t0 = perf_counter_ns()
    acc = 0
    for i in range(_CALL_ITERATIONS):
        k = i & 63
        acc = _mix(acc + lst[k] + dct[k] + box.w, k)
        if acc & 1:
            acc ^= k
    return perf_counter_ns() - t0


def calibration_pass() -> float:
    """Geometric mean of the two loops' ns, with the cyclic GC paused so
    the program's heap does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return math.sqrt(_arith_loop() * _call_loop())
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Calibration samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: ``(start, end)`` perf_counter_ns of each sample, so wall time
        #: can be measured without the calibration passes in it.
        self.marks: list[tuple[int, int]] = []

    def sample(self) -> int:
        """Take one sample; returns its index."""
        t0 = perf_counter_ns()
        self.samples.append(calibration_pass())
        self.marks.append((t0, perf_counter_ns()))
        return len(self.samples) - 1

    def factor(self, first: int, last: int) -> float:
        """Scale for work done between samples ``first`` and ``last``
        (inclusive): ``REF_NS`` over their median."""
        return REF_NS / statistics.median(self.samples[first:last + 1])

    def ref_elapsed_ns(self, start_ns: int) -> float:
        """Wall time from ``start_ns`` to the last sample, less the
        calibration passes, at reference speed.  Each gap between samples
        is scaled by the median of the sample that opens it, the one that
        closes it and the next one -- the same window the timed chunks
        use -- so a host that alternates between fast and slow phases is
        scaled phase by phase, not by one run-wide figure."""
        last = len(self.samples) - 1
        total = 0.0
        prev_end = start_ns
        for i, (begin, end) in enumerate(self.marks):
            f = self.factor(max(0, i - 1), min(i + 1, last))
            total += (begin - prev_end) * f
            prev_end = end
        return total

    def run_factor(self) -> float:
        return REF_NS / statistics.median(self.samples)
