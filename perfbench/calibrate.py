"""Machine-speed calibration for the end-to-end operation time.

On a shared machine the speed of a core drifts by 10-30% over tens of
seconds, and that drift, not the program, set the run-to-run spread of the
raw operation times.  A fixed kernel, timed between operations, drifts with
it: dividing each operation's time by the kernel's time around it, and
taking the median times REF_MS, gives the time the operation would take on
a machine that runs the kernel in REF_MS.  The kernel is benchmark code, so
no change to the program moves it.
"""

import gc
import statistics
import time

import numpy as np

# The kernel's median on the 2-CPU machine the reference figures in
# README.md come from; any constant works, this one keeps the unit near ms.
REF_MS = 23.0

_RNG = np.random.default_rng(0)
_ROWS = 400
_INDPTR = np.arange(0, 3 * _ROWS + 1, 3)
_INDICES = _RNG.integers(0, _ROWS, 3 * _ROWS)
_DATA = np.full(3 * _ROWS, 1.0 / 3.0)


class _Rec:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def kernel():
    """Interpreter-bound work in the program's proportions: per-row numpy
    calls on a sparse matrix, dict and tuple traffic with small objects,
    calls, and text formatting and splitting."""
    x = np.linspace(0.0, 1.0, _ROWS)
    for s in range(_ROWS):
        lo, hi = _INDPTR[s], _INDPTR[s + 1]
        cols, vals = _INDICES[lo:hi], _DATA[lo:hi]
        own = cols == s
        x[s] = 0.5 * (np.dot(vals[~own], x[cols[~own]]) + vals[own].sum())
    counts = {}
    for i in range(20000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    recs = {}
    for i in range(8000):
        key = (i % 97, i % 13, i & 1)
        recs[key] = _Rec(i, key, recs.get(key))
    a = np.arange(64.0)
    for i in range(2000):
        a[i % 64] = float(np.dot(a[:8], a[8:16])) % 7.0
    lines = [f"node G.p{i:04d} version {i % 7}" for i in range(3000)]
    return len("\n".join(lines).split("\n")) + len(counts) + len(recs)


class Calibration:
    def __init__(self):
        self.samples = []
        self.ratios = []    # each operation's time in kernel runs
        self._last = None   # median of the latest burst of kernel runs

    def measure(self, seconds):
        """Time the kernel back to back for about `seconds` (at least once)
        and return the median of this burst.

        The collector is off meanwhile: a collection would time the size of
        the program's heap, not the speed of the machine."""
        start = len(self.samples)
        end = time.perf_counter() + seconds
        gc.disable()
        try:
            while True:
                t0 = time.perf_counter()
                kernel()
                t1 = time.perf_counter()
                self.samples.append(t1 - t0)
                if t1 >= end:
                    break
        finally:
            gc.enable()
        self._last = statistics.median(self.samples[start:])
        return self._last

    def follow(self, op_seconds, seconds):
        """After an operation: time a burst, and record the operation's time
        over the mean of the bursts just before and just after it, so the
        scale follows the machine from one operation to the next."""
        before = self._last
        after = self.measure(seconds)
        self.ratios.append(op_seconds / ((before or after) + after) * 2.0)

    @property
    def ms(self):
        return statistics.median(self.samples) * 1000.0

    def scaled_ms(self):
        """The median operation time on a machine that runs the kernel in
        REF_MS."""
        return statistics.median(self.ratios) * REF_MS
