"""Host-speed normalisation of the benchmark's timings.

A shared host's speed can change in steps.  On a shared 2-vCPU Xeon virtual
machine, a fixed pure-Python loop ran at 0.165 s per million iterations for
a minute, then at 0.098 s for the next, in one process on one core; within
a few minutes it ranged from 0.05 to 0.19 s.  Raw timings of unchanged code
moved with it.

So every time the benchmark reports is in *reference seconds*: raw seconds
scaled by ``REFERENCE_PROBE_S / k``, where k is the time of a fixed probe loop
measured next to the interval.  Probes run between items, at most every
``PROBE_EVERY_S``, and once after the last item.  A single probe jitters by
about 10%, so an item is scaled by the median of the probes within
``WINDOW_S`` of it.  Probe time is never part of an item's latency, and is
subtracted from a round's wall time.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_LOOPS = 100_000
REFERENCE_PROBE_S = 0.01  # the unit: a host on which one probe takes 10 ms
PROBE_EVERY_S = 0.5
WINDOW_S = 1.0


def speed_probe() -> float:
    """Seconds the fixed probe loop takes right now."""
    t0 = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return perf_counter() - t0


class ProbedTimer:
    """Times the items of one round, with host-speed probes between them."""

    def __init__(self, probe_every: float = PROBE_EVERY_S):
        self.probe_every = probe_every
        self.probes: list[tuple[float, float, float]] = []  # (start, end, probe seconds)
        self.items: list[tuple[float, float]] = []
        self._item_start = 0.0

    def probe(self, force: bool = False) -> None:
        start = perf_counter()
        if force or not self.probes or start - self.probes[-1][1] >= self.probe_every:
            k = speed_probe()
            self.probes.append((start, perf_counter(), k))

    def start_item(self) -> None:
        self.probe()
        self._item_start = perf_counter()

    def end_item(self) -> None:
        self.items.append((self._item_start, perf_counter()))

    def probe_seconds(self) -> float:
        return sum(end - start for start, end, _ in self.probes)


def normalize(items, probes) -> list[float]:
    """Item latencies in reference seconds.

    ``items`` are (start, end) and ``probes`` (start, end, probe seconds),
    both in time order.  Each item is scaled by the median of the probes
    that ran within ``WINDOW_S`` of it, together with the last probe before
    it and the first probe after it (whichever exist).
    """
    if not probes:
        raise ValueError("no host-speed probes were taken")
    ends = [p[1] for p in probes]
    starts = [p[0] for p in probes]
    out = []
    for t0, t1 in items:
        lo = max(0, min(bisect_right(ends, t0) - 1, bisect_left(ends, t0 - WINDOW_S)))
        hi = min(len(probes), max(bisect_left(starts, t1) + 1, bisect_right(starts, t1 + WINDOW_S)))
        k = statistics.median(p[2] for p in probes[lo:hi])
        out.append((t1 - t0) * REFERENCE_PROBE_S / k)
    return out


def normalized_wall(raw_wall: float, probe_seconds: float, raw_items, norm_items) -> float:
    """A round's wall time in reference seconds: its time without probes,
    scaled as its items were on average."""
    return (raw_wall - probe_seconds) * sum(norm_items) / sum(raw_items)
