"""A fixed reference kernel, timed between operations to track machine speed.

On a 2-core virtual machine that shares its host (Xeon, Python 3.11.7,
NumPy 2.4.6) the same fixed loop took anywhere from 0.17 to 0.26 s for tens
of seconds at a time, so raw operation times from separate runs differed by
up to a third.  Dividing each
operation's time by the median kernel time within 2 s of it cancels most of
that for operations bound by the interpreter and the caches (25-s windows
of ``analyze``: 0.65-1.05 s raw, 38.8-41.4 kernel units).  Operations whose
arrays outgrow L2 do not follow the kernel (n = 24: 6% spread raw, 23-34%
divided), so their kinds are not calibrated and are only converted to the
same unit with the fixed ``REFERENCE_S``.

The kernel never calls the library, so no change under ``src/`` can move it:
a p-biased butterfly over fixed small tables (arity 1..8, as in the network
workload) plus a pure-Python loop, about 20 ms.  Changing it, ``WINDOW_S`` or
``REFERENCE_S`` changes the unit of every ``op_rel`` value.
"""

from __future__ import annotations

import time

import numpy as np

# Take a sample before an operation once this long has passed since the last.
EVERY_S = 0.5
# Samples whose midpoint lies this close to an operation calibrate it.
WINDOW_S = 2.0
# The kernel's median time on the machine the benchmark was defined on
# (2 cores, Python 3.11.7, NumPy 2.4.6): the unit for uncalibrated kinds.
REFERENCE_S = 0.0225

_rng = np.random.default_rng(20111109)
_TABLES = [(k, _rng.integers(0, 2, size=1 << k) * 2.0 - 1.0, _rng.uniform(0.1, 0.9, size=k))
           for k in range(1, 9) for _ in range(40)]


def kernel() -> float:
    acc = 0.0
    for k, signs, p in _TABLES:
        arr = signs.copy()
        for i in range(k):
            view = arr.reshape(-1, 2, 1 << i)
            a = view[:, 0, :].copy()
            b = view[:, 1, :]
            view[:, 0, :] = (1.0 - p[i]) * a + p[i] * b
            view[:, 1, :] = (b - a) * np.sqrt(p[i] * (1.0 - p[i]))
        acc += float(arr[0])
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return acc + s


class Calibrator:
    """Kernel samples as (start, end, seconds), taken between operations."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        kernel()  # the first call pays one-time costs; keep it out of the samples

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, t1 - t0))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= EVERY_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Median of the samples within ``WINDOW_S`` of [start, end], or the
        nearest sample if none is."""
        mids = [(s[0] + s[1]) / 2 for s in self.samples]
        near = [s[2] for m, s in zip(mids, self.samples)
                if start - WINDOW_S <= m <= end + WINDOW_S]
        if near:
            return float(np.median(near))
        return min(self.samples, key=lambda s: min(abs(s[0] - end), abs(s[1] - start)))[2]

    def median(self) -> float:
        return float(np.median([s[2] for s in self.samples]))
