"""Small distribution helpers used by experiment reports."""

from __future__ import annotations

from typing import Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if q == 0:
        return float(ordered[0])
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1)
    return float(ordered[min(rank, len(ordered) - 1)])


def fraction_leq(values: Sequence[float], threshold: float) -> float:
    """Fraction of values <= threshold (a CDF read-out)."""
    if not values:
        return 0.0
    return sum(1 for v in values if v <= threshold) / len(values)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
