"""A fixed reference kernel that measures the host's current speed.

The shared VMs this benchmark runs on change speed by up to 1.6x for tens of
seconds at a time, and that moves every zonofit timing with it. The kernel
does the same kinds of work as a fit (HiGHS LPs through scipy, small numpy
linear algebra, interpreter overhead) and never touches zonofit, so no change
to the program can move it. Dividing an op's time by the kernel's time near
it gives the op's cost at a fixed host speed; ``NOMINAL_S`` turns that back
into seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Seconds one kernel call is taken to last at the reference host speed; it
# took 7-11 ms on the 2-vCPU Xeon VM the benchmark was written on.
NOMINAL_S = 0.010

_rng = np.random.default_rng(20240717)
_A = _rng.normal(size=(12, 6))
_b = np.abs(_rng.normal(size=12)) + 1.0
_c = _rng.normal(size=6)
_M = _rng.normal(size=(6, 6))


def kernel() -> float:
    total = 0.0
    for _ in range(3):
        total += linprog(_c, A_ub=_A, b_ub=_b, bounds=[(-5.0, 5.0)] * 6, method="highs").fun
    for _ in range(200):
        total += float(np.linalg.det(_M)) + float(np.dot(_M[0], _M[1]))
    return total


def time_kernel() -> float:
    """Wall seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed_factor(kernel_seconds) -> float:
    """Factor that scales wall times taken next to these kernel timings to
    the reference host speed: ``NOMINAL_S`` over their median."""
    return NOMINAL_S / statistics.median(kernel_seconds)
