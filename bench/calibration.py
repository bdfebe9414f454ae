"""Host-speed calibration: fixed kernels timed between ops.

A shared host runs this benchmark at speeds that swing by up to 2x for tens
of seconds at a time, with CPU time equal to wall time, so the slow spells
are a slower CPU, not preemption.  One 30-s run can fall wholly in a fast or
a slow spell, and raw op times then spread far more from run to run than any
change worth measuring.  So a run samples the host's speed after every op
and scales each op time by ``NOMINAL_S / speed sample`` around that op: the
result reads in ms of a host on which a sample takes NOMINAL_S.

The kernels never call the package under test, so a change to the package
moves the scaled figures exactly as much as the raw ones.  They mimic the
two kinds of work in the workloads:

* ``small``: small dense matrices, eigenvalues and scalar Python
  arithmetic, as in the key-rate engine of sweep and search;
* ``large``: a PCG64 normal draw over a 1 MiB array and its reduction, as
  in the finite-size monitor.

A workload names the kernels that resemble its work.  A sample is the
geometric mean of their times, each the fastest of three calls with the
garbage collector off, which keeps the op's garbage out of the sample.  On a
2-vCPU VM this cut the spread (IQR over median) of 30-s windows of one long
recording from 0.19-0.24 to 0.04-0.06 for the median op time of sweep and
search (both kernels), and from 0.11-0.14 to 0.03-0.07 for monitor (large).
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

#: Samples on each side of an op whose median scales that op.  The slow and
#: fast spells last tens of seconds, many ops, so the window follows them.
WINDOW = 5
#: Calls of each kernel per sample; the fastest counts.
REPEATS = 3


def small_kernel() -> float:
    total = 0.0
    for k in range(50):
        a = 2.0 + k * 1e-3
        m = np.array([[a, 0.0, a - 1.0, 0.0], [0.0, a, 0.0, 1.0 - a],
                      [a - 1.0, 0.0, a + 0.5, 0.0], [0.0, 1.0 - a, 0.0, a + 0.5]])
        for x in np.sqrt(np.abs(np.linalg.eigvals(m @ m))):
            x = float(x)
            total += (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)
        total += len(f"{total:.9g},{a:.9g}")
    return total


def large_kernel() -> float:
    y = np.random.Generator(np.random.PCG64(12345)).standard_normal(1 << 17)
    return float(np.dot(y, y))


#: name -> (kernel, nominal seconds).  The nominal times are round figures
#: near the kernels' fastest times on a 2-vCPU Xeon VM at 2.0 GHz.
KERNELS = {"small": (small_kernel, 0.0015), "large": (large_kernel, 0.0025)}


def _fastest(kernel) -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Calibration:
    """Host-speed samples, one per op, and the scale factors they give."""

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = [KERNELS[name][0] for name in kernels]
        self.nominal = _geometric_mean([KERNELS[name][1] for name in kernels])
        for kernel in self.kernels:
            kernel()  # first-call costs are not the host's speed
        self.times: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.times.append(_geometric_mean([_fastest(k) for k in self.kernels]))
        finally:
            if enabled:
                gc.enable()

    def scale(self, index: int) -> float:
        """nominal / median sample within WINDOW samples of `index`."""
        lo = max(0, index - WINDOW)
        return self.nominal / statistics.median(self.times[lo:index + WINDOW + 1])


def _geometric_mean(values: list[float]) -> float:
    return math.prod(values) ** (1.0 / len(values))
