"""Small statistics helpers shared by the workloads and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by the nearest-rank method.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL` samples lie
    beyond it — e.g. a p90 needs at least 100 samples — because a tail
    percentile resting on a handful of samples is one outlier away from
    any value.  The median is exempt: it has half the samples beyond it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    if q != 50 and n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"at least {MIN_TAIL} are required"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
