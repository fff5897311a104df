"""The benchmark's arithmetic: percentiles, interval unions, self time and
failure ratios. Pure functions, checked by ``test_metrics.py``."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100 * n)) if n else 0


def min_samples(q: float) -> int:
    """The fewest samples that leave :data:`MIN_BEYOND` beyond the ``q``-th
    percentile, so the tail it reports is more than a few outliers."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def windows(values: Sequence[float], size: int) -> list[Sequence[float]]:
    """``values`` cut into consecutive windows of ``size``; a shorter tail
    joins the last window, so every window has at least ``size`` values."""
    if len(values) < size:
        raise ValueError(f"{len(values)} values do not fill a window of {size}")
    cuts = list(range(0, len(values) - size + 1, size))
    return [values[start : start + size] for start in cuts[:-1]] + [values[cuts[-1] :]]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its children cover.
    Children may overlap each other (parallel work) or stick out of the
    parent; only their union inside the parent counts."""
    clipped = [
        (max(s, start), min(e, end)) for s, e in children if s < end and e > start
    ]
    return (end - start) - union_length(clipped)


def fail_ratio(attempted: int, report_errors: int, escaped: int) -> float:
    """Failed submissions over submissions attempted. ``report_errors`` are
    the failures the harness caught and listed in its report; ``escaped``
    counts submissions lost to an exception that aborted the run, which never
    reach a report."""
    if attempted < 1:
        raise ValueError("no submissions attempted")
    failed = report_errors + escaped
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted
