"""Host-speed calibration for the end-to-end timings.

The benchmark shares its machine with other tenants, and the speed a single
thread gets drifts by tens of percent over tens of seconds.  A fixed
calibration slice that calls no program code (a Python scan plus numpy
row updates on a tableau-sized array, the same mix of work as the simplex)
runs between tasks about four times a second.  A slice's duration divided
by ``REF_SLICE_S`` is the host factor at that moment; each task latency is
divided by the mean factor of the slices just before and after it, so times
read as seconds on a host that runs the slice in ``REF_SLICE_S``.  The raw
values are printed alongside.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_SLICE_S = 0.005
SLICE_EVERY_S = 0.25

_T0 = np.random.default_rng(0).normal(size=(120, 260))
_C = np.random.default_rng(1).normal(size=260)
# Preallocated buffers: the slice makes no large allocation, so its speed
# does not depend on the allocator state the program leaves behind.
_T = np.empty_like(_T0)
_OUTER = np.empty_like(_T0)
_BASIS = np.arange(_T0.shape[0])


def _kernel() -> int:
    np.copyto(_T, _T0)
    hits = 0
    for k in range(40):
        reduced = _C - _C[_BASIS] @ _T
        for j in range(_T.shape[1]):
            if reduced[j] < -50.0:
                hits += 1
        np.outer(_T[:, k], _T[k], out=_OUTER)
        np.multiply(_OUTER, 1e-6, out=_OUTER)
        np.subtract(_T, _OUTER, out=_T)
    return hits


class HostClock:
    """Calibration slices taken between tasks, and the time they took."""

    def __init__(self):
        self.slices: list[float] = []
        self.last = perf_counter()

    def slice(self) -> None:
        t0 = perf_counter()
        _kernel()
        self.last = perf_counter()
        self.slices.append(self.last - t0)

    def maybe_slice(self) -> None:
        if perf_counter() - self.last >= SLICE_EVERY_S:
            self.slice()

    def normalise(self, latencies, marks) -> list:
        """Each latency divided by the host factor around it: the mean of the
        slices just before and just after the task (``marks`` holds the
        index of the slice before each task)."""
        s = self.slices
        return [lat * 2 * REF_SLICE_S / (s[k] + s[k + 1])
                for lat, k in zip(latencies, marks)]

    @property
    def factor(self) -> float:
        return statistics.fmean(self.slices) / REF_SLICE_S
