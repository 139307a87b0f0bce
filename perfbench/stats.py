"""Order statistics for the benchmark's samples, always reported with their count."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of ``n`` samples."""

    n: int
    median: float
    q1: float
    q3: float


def percentile(values, p: float) -> float:
    """The p-th percentile (0 <= p <= 100) by linear interpolation between order statistics."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"p must lie in [0, 100], got {p}")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the p-th percentile."""
    return int(math.floor(n * (100.0 - p) / 100.0 + 1e-9))


def summarize(values) -> Summary:
    xs = list(values)
    return Summary(n=len(xs), median=percentile(xs, 50), q1=percentile(xs, 25), q3=percentile(xs, 75))
