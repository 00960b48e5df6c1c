"""Summary statistics shared by every workload."""

import math
import statistics

# Percentiles the tail metric may take, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10


def nearest_rank(p: float, n: int) -> int:
    """0-based index of the p-th percentile of n sorted samples."""
    return max(0, math.ceil(p / 100.0 * n) - 1)


def tail_percentile(n: int, highest: float = TAIL_LADDER[-1]) -> float:
    """Highest ladder percentile, up to highest, with MIN_BEYOND_TAIL samples above it.

    Each workload caps the ladder at the percentile its run supports on
    the seed code, so a faster program, which completes more requests in
    the same time, is still compared at the same percentile.  When even
    the median leaves too few samples beyond it, the slowest sample
    (p100) is the tail.
    """
    best = 100.0
    for p in TAIL_LADDER:
        if p <= highest and n - 1 - nearest_rank(p, n) >= MIN_BEYOND_TAIL:
            best = p
    return best


def tail(values, highest: float = TAIL_LADDER[-1]):
    """(percentile, value) of the tail of values, by tail_percentile."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered), highest)
    k = len(ordered) - 1 if p == 100.0 else nearest_rank(p, len(ordered))
    return p, ordered[k]


def median(values) -> float:
    return float(statistics.median(values))
