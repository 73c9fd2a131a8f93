"""Metric arithmetic of the benchmark.

Run with ``python3 -m pytest ledgerbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from hostspeed import REFERENCE_S, kernel, scaled_seconds  # noqa: E402
from layers import LAYER_METRICS, layer_metrics  # noqa: E402
from stats import (highest_percentile, open_loop_lags,  # noqa: E402
                   percentile, weighted_waits)
from tracer import Tracer, empty_ledger  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 90.0) == 90
    assert percentile(samples, 95.0) is None
    assert percentile([], 50.0) is None


def test_highest_percentile_with_ten_beyond():
    assert highest_percentile(list(range(100))) == (90.0, 89)
    assert highest_percentile(list(range(1000)))[0] == 99.0
    assert highest_percentile(list(range(10_000)))[0] == 99.9
    # 15 samples: even the median has only 7 beyond it.
    assert highest_percentile(list(range(15))) is None


def test_open_loop_lag_is_taken_from_due_time_not_send_time():
    due = [0.0, 1.0, 2.0]
    # The generator stalled: record 1 was only written at 1.9 s and
    # record 2 at 2.95 s. Neither send time enters the lag.
    covers = [(2.5, 1), (2.6, 1), (3.0, 3)]
    assert open_loop_lags(due, covers) == [2.5, 2.0, 1.0]


def test_open_loop_lag_skips_uncovered_records():
    assert open_loop_lags([0.0, 1.0, 2.0], [(1.5, 2)]) == [1.5, 0.5]


def test_self_time_is_span_minus_children():
    tracer = Tracer()

    def inner():
        return sum(range(20_000))

    inner_traced = tracer._wrap(inner, "inner")
    outer_traced = tracer._wrap(lambda: inner_traced() + inner_traced(),
                                "outer")
    assert outer_traced() == 2 * inner()
    calls, total, own = tracer.ledger["spans"]["outer"]
    inner_calls, inner_total, inner_own = tracer.ledger["spans"]["inner"]
    assert (calls, inner_calls) == (1, 2)
    assert own == total - inner_total
    assert inner_own == inner_total


def test_wait_runs_from_read_to_next_render():
    waits = weighted_waits([(1.0, 2), (2.5, 1), (9.0, 3)], [2.0, 3.0])
    assert waits == [1.0, 1.0, 0.5]


def test_closed_workloads_report_no_lag_percentiles():
    # A closed drain has no due times, so no lag samples: the ledger
    # reads 0 rather than a percentile of nothing.
    metrics = layer_metrics(empty_ledger(), records=100, extra={},
                            samples={})
    assert metrics["live.lag_p50_ms"] == 0.0
    assert metrics["live.lag_p99_ms"] == 0.0
    # Percentiles appear only with ten samples beyond them.
    few = layer_metrics(empty_ledger(), records=100, extra={},
                        samples={"lag": [0.1] * 50})
    assert few["live.lag_p50_ms"] == 100.0
    assert few["live.lag_p99_ms"] == 0.0
    assert list(metrics) == [name for name, _unit, _b in LAYER_METRICS]


def test_median_needs_no_samples_beyond():
    # Three publishes: too few for any tail, but the median stands.
    metrics = layer_metrics(empty_ledger(), records=100, extra={},
                            samples={"deliver": [0.001, 0.003, 0.002]})
    assert metrics["serve.deliver_ms_p50"] == 2.0


def test_drain_time_scales_with_the_kernel_beside_it():
    # A host running at half speed doubles both the drain and the
    # kernel beside it; the scaled drain time does not move.
    assert scaled_seconds(1.0, REFERENCE_S) == 1.0
    assert scaled_seconds(2.0, 2 * REFERENCE_S) == 1.0
    assert scaled_seconds(1.0, REFERENCE_S / 2) == 2.0


def test_kernel_does_fixed_work():
    assert kernel(rounds=2) == kernel(rounds=2) == 2 * kernel(rounds=1)
