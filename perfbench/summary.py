"""Order statistics shared by the benchmark runner and the comparison command."""

from __future__ import annotations

import math
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> dict:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    With ten samples or fewer no such percentile exists and only the count is
    returned.
    """
    count = len(values)
    if count <= 10:
        return {"percentile": None, "value": None, "samples": count}
    pct = math.floor(100 * (count - 10) / count)
    rank = max(1, math.ceil(pct * count / 100))
    return {"percentile": pct, "value": sorted(values)[rank - 1], "samples": count}


def describe(values: list[float]) -> dict:
    """Median, quartiles, tail percentile and the raw samples of one timing."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "tail": tail(values), "samples": values}
