"""Tail percentiles for timings: a tail only where the sample has one."""

from __future__ import annotations

import math

#: Tail percentiles, highest first.  Anything below p90 is not a tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``pct`` value."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(values) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or None when no tail is supported."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct, percentile(values, pct)
    return None
