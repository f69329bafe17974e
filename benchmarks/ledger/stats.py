"""Order statistics the ledger reports, in one place."""

from __future__ import annotations

import statistics

PERCENTILES = (75, 90, 95, 99)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def high_percentile(values):
    """The highest reported percentile with at least ten samples beyond
    it, as ``(p, value)``; ``None`` when the sample is too small."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        if n * (100 - p) / 100.0 >= 10:
            best = (p, ordered[min(n - 1, int(n * p / 100.0))])
    return best


def summary(values):
    q1, q3 = quartiles(values)
    high = high_percentile(values)
    return {"n": len(values), "median": median(values), "q1": q1,
            "q3": q3, "min": min(values), "max": max(values),
            "high_p": high[0] if high else None,
            "high_value": high[1] if high else None}
