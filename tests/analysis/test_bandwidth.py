"""Bandwidth and timing analysis tests."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import bandwidth
from repro.analysis.bandwidth import (Periodicity, detect_period,
                                      inter_arrival_stats, throughput,
                                      timing_profiles)
from repro.analysis.apdu_stream import ApduEvent
from repro.iec104.apci import SFrame


def event(t, size=60):
    return ApduEvent(time_us=round(t * 1_000_000), src="A", dst="B",
                     apdu=SFrame(recv_seq=0), wire_bytes=size)


class TestThroughput:
    def test_constant_rate(self):
        events = [event(float(t), size=100) for t in range(100)]
        series = throughput(events, bin_size=10.0)
        assert series.mean_rate == pytest.approx(100.0, rel=0.15)
        assert len(series.bytes_per_bin) == 10

    def test_burst_shows_in_peak(self):
        events = [event(float(t)) for t in range(0, 100, 10)]
        events += [event(50.0 + i / 100, size=1000) for i in range(20)]
        series = throughput(events, bin_size=10.0)
        assert series.peak_rate > 3 * series.mean_rate

    def test_empty(self):
        series = throughput([])
        assert series.mean_rate == 0.0 and series.peak_rate == 0.0

    def test_bin_size_validation(self):
        with pytest.raises(ValueError):
            throughput([event(0.0)], bin_size=0.0)

    def test_times_are_bin_centers(self):
        events = [event(0.0), event(19.9)]
        series = throughput(events, bin_size=10.0)
        assert series.times[0] == pytest.approx(5.0)


class TestInterArrival:
    def test_periodic_traffic_low_cv(self):
        events = [event(float(t) * 2.0) for t in range(50)]
        stats = inter_arrival_stats(events)
        assert stats.mean == pytest.approx(2.0)
        assert stats.cv < 0.01
        assert stats.is_machine_paced

    def test_bursty_traffic_high_cv(self):
        times = []
        t = 0.0
        for burst in range(10):
            for i in range(5):
                times.append(t + i * 0.01)
            t += 100.0
        stats = inter_arrival_stats([event(x) for x in times])
        assert stats.cv > 1.0
        assert not stats.is_machine_paced

    def test_percentiles_ordered(self):
        events = [event(float(t ** 1.5)) for t in range(30)]
        stats = inter_arrival_stats(events)
        assert stats.median <= stats.p95

    def test_single_event(self):
        stats = inter_arrival_stats([event(1.0)])
        assert stats.count == 1 and stats.mean == 0.0


class TestDetectPeriod:
    def test_finds_known_period(self):
        timestamps = [float(t) for t in range(0, 600, 30)]
        result = detect_period(timestamps, bin_size=1.0,
                               max_period=120.0)
        assert result.is_periodic
        assert result.period == pytest.approx(30.0, abs=2.0)

    def test_random_times_not_periodic(self):
        import random
        rng = random.Random(5)
        timestamps = sorted(rng.uniform(0, 600) for _ in range(60))
        result = detect_period(timestamps, bin_size=1.0,
                               max_period=120.0)
        assert result.strength < 0.6

    def test_too_few_events(self):
        assert detect_period([1.0, 2.0], bin_size=1.0,
                             max_period=10.0).period is None

    def test_validation(self):
        with pytest.raises(ValueError):
            detect_period([1.0] * 10, bin_size=5.0, max_period=5.0)


def _reference_detect_period(timestamps, bin_size=1.0, max_period=600.0):
    """The per-lag loop ``detect_period`` replaced: one float
    multiply-and-sum per lag over the centred counts."""
    if bin_size <= 0 or max_period <= bin_size:
        raise ValueError("need 0 < bin_size < max_period")
    times = sorted(timestamps)
    if len(times) < 4:
        return Periodicity(period=None, strength=0.0)
    start, end = times[0], times[-1]
    bins = int((end - start) / bin_size) + 1
    counts = np.zeros(bins)
    for time in times:
        counts[min(bins - 1, int((time - start) / bin_size))] += 1
    centered = counts - counts.mean()
    denominator = float((centered ** 2).sum())
    if denominator <= 0:
        return Periodicity(period=None, strength=0.0)
    max_lag = min(bins - 1, int(max_period / bin_size))
    if max_lag < 1:
        return Periodicity(period=None, strength=0.0)
    best_lag, best_value = None, 0.0
    values = []
    for lag in range(1, max_lag + 1):
        value = float((centered[:-lag] * centered[lag:]).sum()
                      ) / denominator
        values.append(value)
    for index in range(1, len(values) - 1):
        if values[index] >= values[index - 1] \
                and values[index] >= values[index + 1] \
                and values[index] > 0.1:
            best_lag, best_value = index + 1, values[index]
            break
    if best_lag is None and values:
        best_index = int(np.argmax(values))
        if values[best_index] > 0.1:
            best_lag, best_value = best_index + 1, values[best_index]
    if best_lag is None:
        return Periodicity(period=None, strength=0.0)
    return Periodicity(period=best_lag * bin_size,
                       strength=max(0.0, min(1.0, best_value)))


def _exact_reference(timestamps, bin_size, max_period):
    """Today's loop in exact integers: ``(lag values, denominator)``,
    each scaled by ``n²``, or ``None`` where the loop returns early.

    With ``d_i = n·c_i − T`` a lag value is ``Σ d_i·d_{i+k}``, summed
    here term by term as ``n²·Σ c_i·c_{i+k} − n·T·(Σ_{i<n−k} c_i +
    Σ_{i≥k} c_i) + (n − k)·T²`` (int64 sums, Python-int products)."""
    times = sorted(timestamps)
    if len(times) < 4:
        return None
    start, end = times[0], times[-1]
    n = int((end - start) / bin_size) + 1
    counts = np.zeros(n, dtype=np.int64)
    for time in times:
        counts[min(n - 1, int((time - start) / bin_size))] += 1
    total = len(times)
    denominator = n * n * int(counts @ counts) - n * total * total
    max_lag = min(n - 1, int(max_period / bin_size))
    if denominator <= 0 or max_lag < 1:
        return None
    return ([n * n * int(counts[:-lag] @ counts[lag:])
             - n * total * int(counts[:-lag].sum() + counts[lag:].sum())
             + (n - lag) * total * total
             for lag in range(1, max_lag + 1)], denominator)


def _exact_detect_period(values, denominator, bin_size):
    """Today's peak choice over exact values: ties go to the first."""
    best = None
    for index in range(1, len(values) - 1):
        if values[index] >= values[index - 1] \
                and values[index] >= values[index + 1] \
                and 10 * values[index] > denominator:
            best = index
            break
    if best is None:
        best = int(np.argmax(values))
        if 10 * values[best] <= denominator:
            return Periodicity(period=None, strength=0.0)
    return Periodicity(period=(best + 1) * bin_size,
                       strength=min(1.0, values[best] / denominator))


def assert_matches_reference(timestamps, bin_size, max_period):
    """The result equals today's loop evaluated exactly; and, unless two
    lag values tie exactly or one sits exactly on the 0.1 peak or 0.3
    ``is_periodic`` threshold (where the float loop's answer is decided
    by rounding), it equals today's float loop too."""
    result = detect_period(timestamps, bin_size, max_period)
    expected = _reference_detect_period(timestamps, bin_size, max_period)
    exact = _exact_reference(timestamps, bin_size, max_period)
    if exact is None:
        assert result == expected == Periodicity(period=None,
                                                 strength=0.0)
        return result
    values, denominator = exact
    assert result == _exact_detect_period(values, denominator, bin_size)
    if len(set(values)) == len(values) \
            and all(10 * value not in (denominator, 3 * denominator)
                    for value in values):
        assert result.period == expected.period
        assert result.is_periodic == expected.is_periodic
        assert abs(result.strength - expected.strength) <= 1e-12
    return result


integer_spaced = st.lists(st.integers(0, 2000).map(float),
                          min_size=0, max_size=200)
uniform_random = st.lists(st.floats(0.0, 3000.0), min_size=0,
                          max_size=200)


@st.composite
def jittered_periodic(draw):
    period = draw(st.sampled_from([2.0, 3.0, 5.0, 7.5, 30.0, 60.0]))
    jitter = draw(st.floats(0.0, 0.5))
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=4,
                            max_size=200))
    origin = draw(st.floats(0.0, 1e5))
    return [origin + index * period + jitter * offset
            for index, offset in enumerate(offsets)]


bin_sizes = st.sampled_from([0.5, 1.0, 2.0])
max_periods = st.sampled_from([4.0, 10.0, 60.0, 120.0, 600.0])


class TestDetectPeriodMatchesReference:
    """The exact all-lags computation picks the lag the per-lag float
    loop picks, with the same strength up to float rounding, wherever
    that loop's choice is not decided by rounding an exact tie."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(integer_spaced, jittered_periodic(),
                     uniform_random), bin_sizes, max_periods)
    def test_same_period_and_strength(self, timestamps, bin_size,
                                      max_period):
        if max_period <= bin_size:
            max_period = 4 * bin_size
        assert_matches_reference(timestamps, bin_size, max_period)

    def test_overflow_fallback(self):
        # ~3e6 one-second bins with bursts of tens of events per bin:
        # 10·n²·Σc² is past int64, so the sums are Python ints.
        rng = random.Random(3)
        timestamps = []
        for burst in range(400):
            base = burst * 7.0 + (2_000_000.0 if burst >= 200 else 0.0)
            timestamps += [base + rng.random() * 0.9
                           for _ in range(rng.randint(20, 60))]
        timestamps.append(3_000_000.0)
        start = min(timestamps)
        bins = int(max(timestamps) - start) + 1
        counts = np.bincount([int(t - start) for t in timestamps],
                             minlength=bins)
        assert 10 * bins * bins * int(counts @ counts) >= 1 << 63
        assert assert_matches_reference(timestamps, 1.0, 20.0).period \
            == 7.0

    def test_exact_tie_goes_to_the_first_lag(self):
        # Counts 1 1 0 0 1 1: lags 1 and 4 both score exactly 1/6. The
        # float loop's argmax picked whichever rounded higher (lag 4).
        timestamps = [0.0, 1.5, 4.0, 5.5]
        assert _reference_detect_period(timestamps, 1.0, 4.0).period \
            == 4.0
        result = assert_matches_reference(timestamps, 1.0, 4.0)
        assert result.period == 1.0
        assert result.strength == 1 / 6

    @pytest.mark.parametrize("seed", range(6))
    def test_lag_by_lag_fallback(self, monkeypatch, seed):
        # Past the FFT's exact-rounding bound the raw lag sums are taken
        # one lag at a time in integers; force that path.
        monkeypatch.setattr(bandwidth, "_FFT_EXACT_LIMIT", 0)
        rng = random.Random(seed)
        timestamps = [index * 30.0 + rng.uniform(-2, 2)
                      for index in range(60)]
        timestamps += [rng.uniform(0, 1800) for _ in range(40)]
        assert_matches_reference(timestamps, 1.0, 120.0)


class TestProfilesOnCapture:
    def test_keepalive_sessions_are_periodic(self, y1_extraction):
        profiles = timing_profiles(y1_extraction, min_packets=8)
        assert profiles
        by_session = {profile.session: profile for profile in profiles}
        # A healthy secondary connection ticks every ~30 s: the
        # periodicity detector must see it.
        keepalive = [profile for profile in profiles
                     if profile.session[0].startswith("C")
                     and profile.stats.mean > 20.0
                     and profile.stats.is_machine_paced]
        assert keepalive, "no machine-paced keep-alive sessions found"

    def test_rates_are_modest(self, y1_extraction):
        """SCADA sessions are tiny by IT standards (paper Hypothesis 1:
        stable, low-bandwidth machine traffic)."""
        profiles = timing_profiles(y1_extraction, min_packets=8)
        assert all(profile.mean_rate_bps < 1e6 for profile in profiles)
