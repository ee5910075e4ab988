"""Summary statistics and report normalisation shared by the benchmark."""

from __future__ import annotations

import re
import statistics

# Samples that must lie strictly beyond the reported tail latency.
TAIL_BEYOND = 10

_WALL_TIME = re.compile(rb'("wall_time_s": )[^\n,}]*')


def median(values):
    return statistics.median(values)


def tail(values):
    """(value, percentile, n) at the highest percentile with ten samples beyond.

    In ascending order the value at index ``n - 11`` has exactly ten
    samples after it, which puts it at percentile ``100 * (n - 10) / n``.
    Below 21 samples that percentile is under the median, so it is no
    tail; the maximum is returned instead, labelled percentile 100, so the
    reader sees that the tail is the slowest sample.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def normalize_report(data: bytes) -> bytes:
    """Report bytes with the ``wall_time_s`` value blanked out.

    Everything else in a report is the behavioural contract and must
    match byte for byte.
    """
    return _WALL_TIME.sub(rb"\1<wall>", data)
