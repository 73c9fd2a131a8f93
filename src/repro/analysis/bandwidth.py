"""Bandwidth and timing characteristics (paper §1, §6: "traffic
analysis of TCP flows, bandwidth used, and timing characteristics").

Provides per-session throughput series, inter-arrival statistics, and
autocorrelation-based periodicity detection — SCADA traffic is largely
machine-paced, so strong periodic components are the expected baseline
and their absence (or change) is itself a signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .apdu_stream import ApduEvent, StreamExtraction


@dataclass(frozen=True)
class ThroughputSeries:
    """Bytes-per-second over fixed bins for one traffic subset."""

    start: float
    bin_size: float
    bytes_per_bin: tuple[float, ...]

    @property
    def times(self) -> list[float]:
        return [self.start + (index + 0.5) * self.bin_size
                for index in range(len(self.bytes_per_bin))]

    @property
    def rates(self) -> list[float]:
        return [value / self.bin_size for value in self.bytes_per_bin]

    @property
    def mean_rate(self) -> float:
        if not self.bytes_per_bin:
            return 0.0
        return float(np.mean(self.bytes_per_bin)) / self.bin_size

    @property
    def peak_rate(self) -> float:
        if not self.bytes_per_bin:
            return 0.0
        return max(self.bytes_per_bin) / self.bin_size


def throughput(events: Sequence[ApduEvent],
               bin_size: float = 10.0) -> ThroughputSeries:
    """Wire-byte throughput of a set of APDU events."""
    if bin_size <= 0:
        raise ValueError("bin_size must be positive")
    if not events:
        return ThroughputSeries(start=0.0, bin_size=bin_size,
                                bytes_per_bin=())
    ordered = sorted(events, key=lambda event: event.time_us)
    start = ordered[0].time_us / 1_000_000
    end = ordered[-1].time_us / 1_000_000
    bins = max(1, int((end - start) / bin_size) + 1)
    totals = [0.0] * bins
    for event in ordered:
        seconds = event.time_us / 1_000_000
        index = min(bins - 1, int((seconds - start) / bin_size))
        totals[index] += event.wire_bytes
    return ThroughputSeries(start=start, bin_size=bin_size,
                            bytes_per_bin=tuple(totals))


@dataclass(frozen=True)
class InterArrivalStats:
    """Timing statistics of one event stream."""

    count: int
    mean: float
    median: float
    p95: float
    #: Coefficient of variation: ~0 for periodic, ~1 for Poisson,
    #: > 1 for bursty traffic.
    cv: float

    @property
    def is_machine_paced(self) -> bool:
        """Heuristic for strongly regular (machine-driven) timing."""
        return self.count >= 5 and self.cv < 0.5


def inter_arrival_stats(events: Sequence[ApduEvent],
                        max_gap: float | None = None
                        ) -> InterArrivalStats:
    """Inter-arrival statistics of an event stream.

    ``max_gap`` drops gaps larger than the given value — use it to
    exclude the idle time between separate capture days, which would
    otherwise swamp the within-capture timing statistics.
    """
    times = sorted(event.time_us / 1_000_000 for event in events)
    gaps = np.diff(times)
    if max_gap is not None:
        gaps = gaps[gaps <= max_gap]
    if len(gaps) == 0:
        return InterArrivalStats(count=len(times), mean=0.0, median=0.0,
                                 p95=0.0, cv=0.0)
    mean = float(gaps.mean())
    cv = float(gaps.std() / mean) if mean > 0 else 0.0
    return InterArrivalStats(count=len(times), mean=mean,
                             median=float(np.median(gaps)),
                             p95=float(np.percentile(gaps, 95)), cv=cv)


@dataclass(frozen=True)
class Periodicity:
    """Dominant periodic component of an event stream."""

    period: float | None
    strength: float  # normalized autocorrelation peak, 0..1

    @property
    def is_periodic(self) -> bool:
        return self.period is not None and self.strength > 0.3


#: An FFT autocorrelation rounds to the exact integer sums while
#: ``Σ c²`` times the transform's log2 length stays below this: the
#: float error is then a small multiple of ``2^-52 · 2^45``, far
#: under the 0.5 the rounding tolerates.
_FFT_EXACT_LIMIT = 1 << 45


def _lag_products(counts: np.ndarray, max_lag: int,
                  sum_sq: int) -> np.ndarray:
    """``S_k = Σ c_i·c_{i+k}`` for ``k`` in ``1..max_lag``, exact (int64
    holds them: each is at most ``Σ c² ≤ (Σ c)²``)."""
    n = len(counts)
    size = 1 << (n + max_lag - 1).bit_length()  # no wrap-around
    if sum_sq * size.bit_length() < _FFT_EXACT_LIMIT:
        spectrum = np.fft.rfft(counts, size)
        products = np.fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2,
                                size)[1:max_lag + 1]
        return np.rint(products).astype(np.int64)
    return np.array([counts[:-lag] @ counts[lag:]
                     for lag in range(1, max_lag + 1)], dtype=np.int64)


def detect_period(timestamps: Sequence[float], bin_size: float = 1.0,
                  max_period: float = 600.0) -> Periodicity:
    """Find the dominant period via autocorrelation of binned counts.

    Events are counted into ``bin_size`` bins from the first
    timestamp. For each lag ``k`` in ``1..max_period / bin_size`` the
    autocorrelation is ``Σ (c_i − c̄)(c_{i+k} − c̄) / Σ (c_i − c̄)²``
    over the ``n`` bins. The lag chosen is the first local maximum
    above 0.1, else the global maximum if it is above 0.1; the result
    is that lag in seconds, or ``None`` when nothing repeats.

    The counts are integers, so every lag is computed exactly and all
    at once. The raw sums ``S_k = Σ c_i·c_{i+k}`` come from one
    zero-padded real FFT rounded to integers; the rounding is exact
    while ``Σ c²`` stays far below 2^52, and past that bound the sums
    are taken lag by lag in integers. With ``T = Σ c`` and the prefix
    and suffix sums ``P_k = Σ_{i<n−k} c_i`` and ``Q_k = Σ_{i≥k} c_i``,
    the autocorrelation scaled by ``n²`` is the integer ratio

        N_k = n²·S_k − n·T·(P_k + Q_k) + (n − k)·T²
        D   = n·(n·Σ c² − T²)

    Peaks and the threshold (``10·N_k > D``) are found by comparing
    these integers, so exact ties go to the first lag. They are int64
    unless ``10·n²·Σ c²`` would overflow it, as it can for a
    capture-scale span of ~10^6 bins; then they are Python ints
    (object arrays). ``strength`` is ``N_k / D`` correctly rounded.
    """
    if bin_size <= 0 or max_period <= bin_size:
        raise ValueError("need 0 < bin_size < max_period")
    times = np.asarray(timestamps, dtype=np.float64)
    if len(times) < 4:
        return Periodicity(period=None, strength=0.0)
    start, end = float(times.min()), float(times.max())
    n = int((end - start) / bin_size) + 1  # bins
    # Same bin as min(n - 1, int((t - start) / bin_size)): the offsets
    # are non-negative, so astype truncates as int() does.
    counts = np.bincount(
        np.minimum(n - 1, ((times - start) / bin_size).astype(np.int64)),
        minlength=n)
    total = len(times)
    sum_sq = int(np.dot(counts, counts))
    denominator = n * (n * sum_sq - total * total)
    if denominator <= 0:
        return Periodicity(period=None, strength=0.0)
    max_lag = min(n - 1, int(max_period / bin_size))
    if max_lag < 1:
        return Periodicity(period=None, strength=0.0)
    lag_sums = _lag_products(counts, max_lag, sum_sq)
    lags = np.arange(1, max_lag + 1)
    prefix = np.cumsum(counts)
    ends = prefix[n - 1 - lags] + (total - prefix[lags - 1])  # P_k + Q_k
    remaining = n - lags
    if 10 * n * n * sum_sq >= 1 << 63:  # past int64: use Python ints
        lag_sums = lag_sums.astype(object)
        ends = ends.astype(object)
        remaining = remaining.astype(object)
    values = (n * n * lag_sums - n * total * ends
              + remaining * (total * total))
    # Pick the first local maximum above threshold; fall back to the
    # global maximum.
    above = 10 * values > denominator
    peaks = np.flatnonzero((values[1:-1] >= values[:-2])
                           & (values[1:-1] >= values[2:])
                           & above[1:-1])
    if len(peaks):
        best_index = int(peaks[0]) + 1
    else:
        best_index = int(np.argmax(values))
        if not above[best_index]:
            return Periodicity(period=None, strength=0.0)
    # 0.1 < N_k / D <= 1 (Cauchy-Schwarz), so no clamp is needed.
    return Periodicity(period=(best_index + 1) * bin_size,
                       strength=int(values[best_index]) / denominator)


@dataclass(frozen=True)
class SessionTimingProfile:
    """Combined timing profile of one session."""

    session: tuple[str, str]
    stats: InterArrivalStats
    periodicity: Periodicity
    mean_rate_bps: float


def timing_profiles(extraction: StreamExtraction,
                    min_packets: int = 10,
                    bin_size: float = 1.0,
                    max_gap: float = 600.0
                    ) -> list[SessionTimingProfile]:
    """Timing profile per session — SCADA's predictability made
    measurable (the paper's Hypothesis 1 at the session level).

    ``max_gap`` excludes idle stretches longer than the given number of
    seconds (the boundaries between capture days)."""
    profiles: list[SessionTimingProfile] = []
    for session, events in sorted(extraction.by_session().items()):
        if len(events) < min_packets:
            continue
        stats = inter_arrival_stats(events, max_gap=max_gap)
        duration = ((events[-1].time_us - events[0].time_us) / 1_000_000
                    if len(events) > 1 else 0.0)
        max_period = max(bin_size * 4, min(600.0, duration / 2))
        periodicity = detect_period(
            [event.time_us / 1_000_000 for event in events],
            bin_size=bin_size, max_period=max_period)
        series = throughput(events, bin_size=max(10.0, bin_size))
        profiles.append(SessionTimingProfile(
            session=session, stats=stats, periodicity=periodicity,
            mean_rate_bps=8.0 * series.mean_rate))
    return profiles
