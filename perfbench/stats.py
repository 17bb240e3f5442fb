"""Order statistics used by the benchmark.

Every percentile here is *nearest rank*: the value at 1-based rank
``ceil(p / 100 * n)`` of the sorted samples, so a reported percentile is
always one of the measured samples, never an interpolation between two.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

#: Percentile levels a tail may be reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND_TAIL = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank; rounding first keeps ``99.9 / 100 * 10000``
    at rank 9990 instead of floating up to 9991."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0 < p <= 100) of ``values`` by nearest rank."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile level {p} outside (0, 100]")
    return sorted(values)[_rank(p, len(values)) - 1]


def beyond(values: Sequence[float], p: float) -> int:
    """How many samples rank strictly after the ``p``-th percentile."""
    return len(values) - _rank(p, len(values))


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(level, value)`` of the highest percentile in :data:`TAIL_LEVELS`
    that leaves at least :data:`MIN_BEYOND_TAIL` samples beyond it, or
    ``None`` when the sample is too small for any of them."""
    for level in TAIL_LEVELS:
        if beyond(values, level) >= MIN_BEYOND_TAIL:
            return level, nearest_rank(values, level)
    return None


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 50.0)


def geometric_mean(values: Iterable[float]) -> float:
    logs: List[float] = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geometric mean of an empty sample")
    return math.exp(sum(logs) / len(logs))
