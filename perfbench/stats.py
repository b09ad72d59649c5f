"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile of ascending values, and how many lie beyond it."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond it.

    Returns ``(p, value, samples_beyond)``, or None when even the median has
    fewer than ``MIN_BEYOND`` samples beyond it.
    """
    ordered = sorted(values)
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    return None


def item_latency_summary(latencies_s: list[float]) -> dict:
    """Median and tail of one round's item latencies, in milliseconds.

    With too few items for any tail percentile the tail is the slowest item
    (reported as p100 with no samples beyond).
    """
    ms = [v * 1000.0 for v in latencies_s]
    tail = tail_percentile(ms)
    if tail is None:
        tail = (100.0, max(ms), 0)
    p, value, beyond = tail
    return {
        "items": len(ms),
        "p50_ms": statistics.median(ms),
        "tail_ms": value,
        "tail_p": p,
        "tail_beyond": beyond,
    }
