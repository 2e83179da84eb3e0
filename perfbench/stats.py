"""Reference-unit conversion and the percentile rules the metrics use."""

from __future__ import annotations

import statistics
from typing import Sequence

# A tail percentile needs at least this many queries beyond it.
TAIL_BEYOND = 10


def to_ref(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """A query's seconds in reference units: divided by the mean of the
    reference kernel's seconds just before and just after the query."""
    if kernel_before <= 0 or kernel_after <= 0:
        raise ValueError("kernel times must be positive")
    return seconds / ((kernel_before + kernel_after) / 2)


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has at least
    TAIL_BEYOND values above it: the (TAIL_BEYOND + 1)-th largest value.

    The percentile is the share of values at or below the returned rank.
    """
    count = len(values)
    if count <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} values, got {count}")
    rank = count - TAIL_BEYOND  # 1-based rank in ascending order
    return sorted(values)[rank - 1], 100.0 * rank / count


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the base is empty (a layer the workload bypasses)."""
    return num / den if den else 0.0
