"""Machine-speed calibration for the timings.

On a machine with shared cores the speed of one process drifts by up to
1.8x within seconds (the kernel below took 2.1 ms or 3.8 ms on a 2-vCPU
Xeon VM, depending on the moment).  A fixed calibration kernel that uses no
ppcalc code runs between the timed operations; each timed interval is
rescaled by the kernel's duration measured next to it, so

    normalised seconds = raw seconds * NOMINAL_S / kernel seconds,

the time the interval would take on a machine where the kernel takes
exactly NOMINAL_S.  A change to ppcalc moves the raw time and leaves the
kernel alone, so it shows in full; a slower stretch of the machine moves
both and cancels.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from fractions import Fraction

import numpy as np

from oracle import rank_mod_p, rank_qq

NOMINAL_S = 0.004
NOMINAL_STREAM_S = 0.007

_RNG = random.Random(20140101)
_QQ_ROWS = [[Fraction(_RNG.randint(-3, 3)) for _ in range(9)] for _ in range(9)]
_FP_ARRAY = np.array([[_RNG.randrange(1048573) for _ in range(40)] for _ in range(40)], dtype=np.int64)


def kernel():
    """Fixed eliminations of the same kinds ppcalc runs: Fractions, int64 mod p."""
    return rank_qq([row[:] for row in _QQ_ROWS]), rank_mod_p(_FP_ARRAY.copy(), 1048573)


def stream_kernel(big):
    """One elimination step over a 4 MB int64 array, which streams memory.

    ppcalc's large eliminations mod p slow down with memory traffic from
    the neighbours, which kernel() alone, being cache-resident, misses.
    """
    return (big[1:] - np.outer(big[1:, 0], big[0])) % 1048573


class Speed:
    """Calibration samples taken during a run, and rescaling by them."""

    def __init__(self, streaming=False):
        """With streaming, each calibration runs stream_kernel() as well."""
        self.big = (
            np.random.default_rng(20140101).integers(0, 1048573, size=(512, 1024))
            if streaming
            else None
        )
        self.starts = []
        self.ends = []
        self.durations = []  # kernel()
        self.streams = []  # stream_kernel()

    def calibrate(self):
        start = time.perf_counter()
        kernel()
        mid = time.perf_counter()
        if self.big is not None:
            stream_kernel(self.big)
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(mid - start)
        self.streams.append(end - mid)

    def factor_at(self, t, streaming=False):
        """Speed factor from the calibrations on either side of t.

        With streaming, the geometric mean of the two kernels' factors:
        for the ops that eliminate large systems mod p it cut the spread
        of ten runs by half or more.
        """
        i = bisect.bisect_right(self.ends, t)
        lo, hi = max(i - 1, 0), i + 1
        factor = NOMINAL_S * len(self.durations[lo:hi]) / sum(self.durations[lo:hi])
        if streaming:
            stream = NOMINAL_STREAM_S * len(self.streams[lo:hi]) / sum(self.streams[lo:hi])
            factor = math.sqrt(factor * stream)
        return factor

    def scaled(self, t0, t1, streaming=False):
        """Normalised seconds of [t0, t1], leaving out calibration time."""
        total = 0.0
        cur = t0
        i = bisect.bisect_right(self.ends, t0)
        while True:
            stop = self.starts[i] if i < len(self.starts) and self.starts[i] < t1 else t1
            if stop > cur:
                total += (stop - cur) * self.factor_at(cur, streaming)
            if stop == t1:
                return total
            cur = self.ends[i]
            i += 1

    def median_factor(self):
        durations = sorted(self.durations)
        return NOMINAL_S / durations[len(durations) // 2]
