"""Metric arithmetic shared by the benchmark runner and its tests.

Everything here is pure: lists of numbers in, numbers out. The rules
follow the benchmark notes (``ledgerbench/NOTES.md``):

* a percentile is reported only when at least ``MIN_BEYOND`` samples
  lie beyond it (nearest-rank definition);
* open-loop lag is measured from a record's *due* time, never from
  the moment the generator actually wrote it, so a stall that delays
  later writes still counts against the system;
* a per-record wait runs from the poll that read the record to the
  next rendered result.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Iterable, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles the tail helper considers, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        value = median(values)
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(samples: Sequence[float], pct: float) -> float | None:
    """Nearest-rank ``pct`` percentile, or None when fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    count = len(samples)
    if not count:
        return None
    # Rounding first keeps float error (99.9% of 10 000 is
    # 9990.000000000002) from bumping the rank by one.
    rank = max(1, math.ceil(round(pct / 100.0 * count, 9)))
    if count - rank < MIN_BEYOND:
        return None
    return float(sorted(samples)[rank - 1])


def highest_percentile(samples: Sequence[float],
                       candidates: Iterable[float] = TAIL_CANDIDATES
                       ) -> tuple[float, float] | None:
    """The highest candidate percentile with ``MIN_BEYOND`` samples
    beyond it, as ``(pct, value)``; None when not even the lowest
    candidate qualifies."""
    for pct in sorted(candidates, reverse=True):
        value = percentile(samples, pct)
        if value is not None:
            return pct, value
    return None


def open_loop_lags(due: Sequence[float],
                   covers: Sequence[tuple[float, int]]) -> list[float]:
    """Per-record lag of an open-loop feed.

    ``due[i]`` is when record ``i`` was scheduled to be written;
    ``covers`` lists ``(arrival_time, covered)`` for every pushed
    result in arrival order, ``covered`` being how many records (a
    file-order prefix) that result reflects. A record's lag runs from
    its due time to the first result covering it. Records never
    covered are left out (the caller counts them as failed).
    """
    times: list[float] = []
    marks: list[int] = []
    best = 0
    for arrival, covered in covers:
        if covered > best:
            best = covered
            times.append(arrival)
            marks.append(covered)
    lags = []
    for index, due_time in enumerate(due):
        position = bisect.bisect_left(marks, index + 1)
        if position == len(marks):
            break
        lags.append(times[position] - due_time)
    return lags


def weighted_waits(reads: Sequence[tuple[float, int]],
                   renders: Sequence[float]) -> list[float]:
    """Per-record wait from being read to the next rendered result.

    ``reads`` holds ``(time, records)`` per source poll and
    ``renders`` the times results were rendered; each record of a
    poll waits until the first render at or after its read.
    """
    ordered = sorted(renders)
    waits: list[float] = []
    for read_time, records in reads:
        position = bisect.bisect_left(ordered, read_time)
        if position == len(ordered) or not records:
            continue
        waits.extend([ordered[position] - read_time] * records)
    return waits
