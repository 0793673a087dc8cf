"""Order statistics shared by the runner and the comparison tool."""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile (``statistics.quantiles``
    with ``n=4``; a single value is its own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p90 that has at least ten samples beyond it,
    or None when there are too few samples for either."""
    ordered = sorted(values)
    for name, q in (("p99", 0.99), ("p90", 0.90)):
        if len(ordered) * (1 - q) >= 10:
            cut = statistics.quantiles(ordered, n=100,
                                       method="inclusive")[round(q * 100) - 1]
            return name, cut
    return None
