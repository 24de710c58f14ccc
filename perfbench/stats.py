"""Summary statistics used for every timing the benchmark reports."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The usual median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least :data:`MIN_BEYOND`
    of ``n`` samples beyond it, or ``None`` when even the median has
    fewer."""
    best = None
    for pct in TAIL_PERCENTILES:
        # Exact in integers: n * (1 - pct/100) >= MIN_BEYOND.
        if n * (1000 - round(pct * 10)) >= MIN_BEYOND * 1000:
            best = pct
    return best


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """``(percentile, value)`` of the reportable tail; ``(None, None)``
    when there are too few samples for any."""
    pct = tail_percentile(len(values))
    if pct is None:
        return None, None
    return pct, percentile(values, pct)
