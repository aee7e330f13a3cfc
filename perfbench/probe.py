"""Machine-speed probe: scales wall-clock times to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by 1.3-2x for
seconds to minutes at a time, as other tenants load the same cores; the
process's CPU time drifts with its wall time, so neither clock removes it.
The probe is a fixed piece of benchmark code, about a quarter of a
millisecond long, that stresses what the library's requests stress: the
interpreter loop, dict and list churn, and small numpy/scipy calls.  It runs
between requests; a request's wall time divided by the probe times around
it, times `REFERENCE_S`, is the request's time on the reference host in its
quiet state.  The probe is not library code, so a change to the library
moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

import numpy as np
from scipy.special import ndtr

# Probe time on the reference host (2-CPU Intel Xeon virtual machine,
# Python 3.11, numpy 2.4, scipy 1.17) in its quiet state: the 5th
# percentile of 8000 probes over five 50-s runs.
REFERENCE_S = 0.25e-3

_GRID = np.linspace(-3.0, 3.0, 64)


def _interpreter() -> float:
    s = 0.0
    for i in range(6000):
        s += (i * 0.5) % 7.0
    return s


def _containers() -> int:
    d = {}
    for i in range(1500):
        d[i] = i
    return len([v for v in d.values() if v & 1])


def _numeric() -> float:
    s = 0.0
    for _ in range(60):
        s += float(ndtr(_GRID).sum())
    return s


KERNELS = (_interpreter, _containers, _numeric)


def probe() -> float:
    """Geometric mean of the kernels' wall times, in seconds.  The garbage
    collector is off while they run, so a large heap left by the library
    cannot slow the probe and so speed up the scaled times."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for kernel in KERNELS:
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return math.prod(times) ** (1.0 / len(times))


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time, measured between probes that took `before`
    and `after`, as seconds on the reference host."""
    return seconds * REFERENCE_S / math.sqrt(before * after)
