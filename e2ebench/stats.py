"""Percentiles under the benchmark's sample-count rule, and spreads.

A percentile is reported only where at least ``MIN_BEYOND`` samples lie
beyond it, so a p50 needs 20 samples and a p90 needs 100.  Percentiles
are nearest-rank: the reported value is a sample that was measured.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to report it."""


def nearest_rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile (0 < q <= 100) of n."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    if n < 1:
        raise ValueError("need at least one sample")
    return max(1, math.ceil(q / 100.0 * n))


def samples_beyond(q: float, n: int) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank percentile."""
    return n - nearest_rank(q, n)


def min_samples(q: float) -> int:
    """Smallest sample count for which the ``q``-th percentile is reportable."""
    n = 1
    while samples_beyond(q, n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; raises :class:`TooFewSamples` under the rule."""
    n = len(samples)
    if n == 0 or samples_beyond(q, n) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {min_samples(q)} samples "
            f"({MIN_BEYOND} beyond it), got {n}"
        )
    return float(sorted(samples)[nearest_rank(q, n) - 1])


def iqr_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
