"""Machine-speed calibration for timings on a shared, drifting CPU.

On a small shared box the speed of one core can drift by a quarter within a
few seconds, and process CPU time drifts with it, so raw timings of one
workload spread far more across runs than the code's own variation.  The
benchmark therefore runs a fixed pure-Python reference loop before every
timed operation and scales every timing by NOMINAL_S over the reference time
measured around it.  A scaled time reads as "seconds on a machine where the
reference loop takes NOMINAL_S"; the loop exercises no switchq code, so a
change to the package moves scaled and raw times alike.
"""

import bisect
import statistics
import time

REF_ITERATIONS = 20_000
NOMINAL_S = 0.002   # about the loop's duration on a 2-core Xeon VM (Python 3.11)
WINDOW_S = 0.1      # reference samples this close to a timed span count for it
SAMPLE_SHARE = 0.01  # a long gap between samples buys more, up to this share of it
MAX_SAMPLES = 10


def reference_loop() -> int:
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return s


class Calibrator:
    """Reference samples in time order, and the scale factor for a span."""

    def __init__(self):
        self.mid: list[float] = []
        self.took: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Times the reference loop ``count`` times in a row, or more after a
        long gap.

        A span of a second (a wide P1 walk) is bracketed by the samples just
        before and after it, so after such a gap the loop runs until it has
        taken about SAMPLE_SHARE of the gap, which damps the noise of any
        single sample.  Millisecond spans keep one sample each.  Set-up asks
        for several, because it is only a few spans.
        """
        if self.mid:
            gap = time.perf_counter() - self.mid[-1]
            count = max(count, min(MAX_SAMPLES, int(gap * SAMPLE_SHARE / NOMINAL_S)))
        for _ in range(count):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.mid.append((t0 + t1) / 2)
            self.took.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time around [start, end].

        Uses every sample within WINDOW_S of the span, and at least the
        nearest sample on each side of it.
        """
        lo = bisect.bisect_left(self.mid, start - WINDOW_S)
        hi = bisect.bisect_right(self.mid, end + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(self.mid, start) - 1))
        hi = max(hi, min(len(self.mid), bisect.bisect_right(self.mid, end) + 1))
        return NOMINAL_S / statistics.median(self.took[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.took)
