"""Machine-speed calibration.

On a shared host the speed of one core drifts by a quarter or more over
seconds to minutes, and that drift moves every Python workload alike. The
benchmark times a fixed reference computation right before and after each
command and divides the command's time by the reference's slowdown, so a
change to causalkit shows and the host's drift mostly does not. The
reference uses nothing from causalkit: object and dict traffic in the
interpreter plus small numpy calls, the mix a `cml` command does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of reference_work() on the machine the bounds were set on
# (2-vCPU x86-64 VM at 2.0 GHz, Python 3.11.7, numpy 2.4.6). It fixes only
# the scale of the reported numbers: on that machine they read as typical
# unscaled ones. Comparisons between two runs do not depend on it.
REFERENCE_S = 0.0045

_BINS = np.arange(128) % 64


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_work() -> float:
    """A fixed computation: object and dict traffic, then small numpy calls."""
    acc = 0.0
    table = {}
    for i in range(4000):
        cell = _Cell(i, i * 0.5)
        table[i & 63] = cell
        other = table.get((i * 7) & 63)
        if isinstance(other, _Cell):
            acc += other.value
    for i in range(50):
        amps = np.array([complex(j, i) for j in range(128)])
        weights = np.abs(amps) ** 2
        acc += float(np.searchsorted(np.cumsum(weights / weights.sum()), 0.5))
        acc += float(np.bincount(_BINS, weights=amps.real, minlength=64).sum())
    return acc


def slowness(samples: int = 1) -> float:
    """Time of the reference work now over REFERENCE_S, the median of
    ``samples`` timings."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S
