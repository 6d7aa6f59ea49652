"""Host-speed calibration of the end-to-end times.

On the 2-vCPU host the benchmark was built on, the speed of the same code
swung by up to a third over tens of seconds, driven by other tenants, so
the median step time of one 30 s run differed from the next by up to 40%.
No run length the time budget allows averages that out.  Each end-to-end
time is therefore reported calibrated: its wall time times NOMINAL / k,
where k is the duration of a fixed kernel measured just before and just
after the interval.  The kernels are benchmark code that never calls
refalign, so a change to refalign moves calibrated times as it moves wall
times, while a slow or fast spell of the host moves the kernel too and
cancels.  The wall times are printed and recorded beside them.

Each workload names the kernel that stresses what its operations stress:
`step` (interpreter loop, small NumPy calls and an Adam-like sweep over
4 MB, like a training step) or `sort` (stable argsort of a wide matrix,
like ranking a gallery).
NOMINAL is about the kernel's duration on that host (Xeon, 2.1 GHz, 2
vCPUs) in its fast spells, so calibrated times read close to the wall
times of a quiet host.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(32, 32))
_VECTOR = _rng.normal(size=20_000)
_WIDE = _rng.normal(size=(250, 4000))
# about the size of the model's parameters and Adam moments (~4 MB)
_PARAMS = [_rng.normal(size=120_000) for _ in range(4)]
_MOMENTS = [(np.zeros(120_000), np.zeros(120_000)) for _ in range(4)]


def _step() -> None:
    acc = 0
    for i in range(3000):
        acc += (i * 7) % 13
    for _ in range(60):
        _SMALL @ _SMALL
        np.tanh(_SMALL)
        _SMALL.sum(axis=1)
    np.sort(_VECTOR)
    for p, (m, v) in zip(_PARAMS, _MOMENTS):
        g = np.tanh(p)
        m *= 0.9
        m += 0.1 * g
        v *= 0.999
        v += 0.001 * (g * g)
        p -= 1e-9 * m / (np.sqrt(v) + 1e-8)


def _sort() -> None:
    np.argsort(-_WIDE, axis=1, kind="stable")


# kernel -> (function, runs per sample, nominal seconds per run)
KERNELS = {"step": (_step, 3, 5.0e-3), "sort": (_sort, 3, 85e-3)}


class Calibration:
    """Kernel samples over time; `scale` converts an interval's wall time
    to calibrated time."""

    def __init__(self, kernel: str, interval: float = 0.5):
        self.kernel = kernel
        self._fn, self._runs, self.nominal = KERNELS[kernel]
        self.interval = interval
        self.at: list[float] = []        # when each sample finished
        self.seconds: list[float] = []   # median kernel run of each sample

    def sample(self, force: bool = True) -> None:
        """Time the kernel now, unless a sample is less than `interval`
        old and `force` is off."""
        if not force and self.at and time.perf_counter() - self.at[-1] < self.interval:
            return
        runs = []
        for _ in range(self._runs):
            start = time.perf_counter()
            self._fn()
            runs.append(time.perf_counter() - start)
        self.at.append(time.perf_counter())
        self.seconds.append(statistics.median(runs))

    def scale(self, start: float, end: float) -> float:
        """NOMINAL over the mean kernel time of the last sample taken
        before `start` and the first taken after `end`."""
        before = max(0, bisect.bisect_right(self.at, start) - 1)
        after = min(len(self.at) - 1, bisect.bisect_left(self.at, end))
        return self.nominal / ((self.seconds[before] + self.seconds[after]) / 2.0)
