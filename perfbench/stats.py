"""Sample statistics with an explicit sample discipline.

* Percentiles are nearest-rank: the value at rank ``ceil(p/100 * n)`` of
  the sorted samples, so every reported percentile is an observed value.
* A tail percentile is only reported when at least ``MIN_BEYOND``
  samples lie beyond it; :func:`supported_percentile` falls back to the
  highest percentile that is, bottoming out at the median.
* Failed operations enter latency samples as ``math.inf`` (a miss), so
  they push percentiles up instead of vanishing.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
"""Samples that must lie beyond a tail percentile for it to be reported."""

MISS_VALUE = 1e9
"""JSON stand-in for an infinite latency (``inf`` is not valid JSON)."""


def nearest_rank(samples, p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``p``-th."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def supported_percentile(n: int, p: float, min_beyond: int = MIN_BEYOND) -> float:
    """The highest percentile ``<= p`` with ``min_beyond`` samples beyond it.

    The median is always allowed: it is the central estimate, not a tail.
    """
    if p <= 50 or beyond(n, p) >= min_beyond:
        return p
    for q in range(int(p) - 1, 50, -1):
        if beyond(n, q) >= min_beyond:
            return float(q)
    return 50.0


def rate(count: int, seconds: float) -> float:
    """Operations per second; ``0.0`` for an empty window."""
    return count / seconds if seconds > 0 else 0.0


def ok_ratio(ok: int, attempted: int) -> float:
    """Share of attempted operations that succeeded and passed the checks."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= ok <= attempted:
        raise ValueError(f"ok={ok} outside 0..attempted={attempted}")
    return ok / attempted


def latency_summary(samples, tail: float = 95.0) -> dict:
    """Median and supported tail of latency ``samples`` with sample counts."""
    n = len(samples)
    p = supported_percentile(n, tail)
    return {
        "n": n,
        "misses": sum(1 for s in samples if math.isinf(s)),
        "p50": nearest_rank(samples, 50),
        "tail_percentile": p,
        "tail": nearest_rank(samples, p),
        "beyond_tail": beyond(n, p),
    }


def json_number(value: float) -> float:
    """``value`` made JSON-safe (an infinite latency becomes MISS_VALUE)."""
    return MISS_VALUE if math.isinf(value) else float(value)


def spread(values) -> dict:
    """Median, quartiles and spreads of repeated measurements of a metric.

    ``iqr_share`` is (Q3 - Q1) / median, with quartiles as
    ``statistics.quantiles(values, n=4)`` gives them; ``range_share`` is
    (max - min) / median.
    """
    values = [float(v) for v in values]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(median) if median else 1.0
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }
