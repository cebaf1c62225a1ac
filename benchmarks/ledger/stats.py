"""Order statistics the ledger reports: median, quartiles, percentiles."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between closest
    ranks (``p=50`` equals :func:`statistics.median`)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def highest_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest candidate percentile with at least ``beyond`` of ``n``
    samples above it, or ``None`` when not even the median has that
    many (choosing-metrics, section 1)."""
    best = None
    for p in PERCENTILES:
        if round(n * (100.0 - p), 6) >= 100 * beyond:
            best = p
    return best


def median(values) -> float:
    """Median of a sample, 0.0 when it is empty."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def summary(values: Sequence[float]) -> Dict[str, float]:
    """``n``, median and quartiles of a sample (quartiles collapse to
    the median below two samples)."""
    xs = [float(v) for v in values]
    if not xs:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    med = statistics.median(xs)
    if len(xs) < 2:
        return {"n": len(xs), "median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "median": med, "q1": q1, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure)."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else float("inf")
