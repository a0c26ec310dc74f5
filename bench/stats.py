"""Summary statistics with the benchmark's sample-count rule.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples
lie beyond it; otherwise it would be set by one or two outliers.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - math.ceil(q / 100.0 * n)


def percentile(samples, q):
    """Nearest-rank percentile, or ``None`` when too few samples lie beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted(samples)[rank - 1]


def median(samples):
    return statistics.median(samples) if samples else None
