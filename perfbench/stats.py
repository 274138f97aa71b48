"""Metric arithmetic for the benchmark: percentiles, geometric means, ratios.

Kept free of zonofit imports so the rules can be tested on synthetic input.
"""

from __future__ import annotations

import math

# A reported percentile must have at least this many samples beyond it, so
# that one outlier cannot set it on its own.
MIN_TAIL = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile (0 < q < 1) of ``values``.

    Raises ValueError when fewer than ``MIN_TAIL`` samples lie beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    rank = max(1, math.ceil(q * n - 1e-9))  # 1-based; slack for q * n round-off
    if n - rank < MIN_TAIL:
        raise ValueError(f"{n} samples leave {n - rank} beyond the {q:g} quantile; "
                         f"need {MIN_TAIL}")
    return float(xs[rank - 1])


def geometric_mean(values) -> float:
    xs = list(values)
    if not xs or min(xs) <= 0.0:
        raise ValueError("geometric mean needs at least one positive value and no others")
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


def ratio(num: float, den: float) -> float:
    """num / den, with 0 when nothing was attempted (den == 0)."""
    if den < 0 or num < 0:
        raise ValueError("ratio of negative counts")
    return num / den if den else 0.0
