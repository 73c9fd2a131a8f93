"""The per-layer ledger: traced spans and counts -> named metrics.

Every metric is printed for every workload (the benchmark's output
line); a layer the workload does not run reads 0. Per-record
figures divide by the records the traced drains (or live repetitions)
processed, so they compare across workloads of different length.
"""

from __future__ import annotations

from typing import Any, Mapping

from stats import median, percentile, weighted_waits

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("netstack.decode_calls_per_record", "count", "lower"),
    ("netstack.decode_us_per_call", "us", "lower"),
    ("netstack.read_us_per_record", "us", "lower"),
    ("ingest.read_us_per_record", "us", "lower"),
    ("ingest.empty_poll_frac", "frac", "lower"),
    ("ingest.backlog_max_records", "records", "lower"),
    ("fleet.route_us_per_record", "us", "lower"),
    ("fleet.links", "count", "higher"),
    ("pipeline.self_us_per_record", "us", "lower"),
    ("pipeline.events_per_record", "ratio", "higher"),
    ("parse.us_per_call", "us", "lower"),
    ("parse.calls_per_record", "count", "lower"),
    ("analyzers.flows_us_per_packet", "us", "lower"),
    ("analyzers.chains_us_per_event", "us", "lower"),
    ("analyzers.sessions_us_per_event", "us", "lower"),
    ("analyzers.detector_us_per_event", "us", "lower"),
    ("snapshots.build_ms", "ms", "lower"),
    ("snapshots.json_kb", "KB", "lower"),
    ("monitor.wait_ms_p50", "ms", "lower"),
    ("serve.publish_ms", "ms", "lower"),
    ("serve.serializations_per_publish", "ratio", "lower"),
    ("serve.skipped_frac", "frac", "lower"),
    ("serve.deliver_ms_p50", "ms", "lower"),
    ("history.record_ms", "ms", "lower"),
    ("history.query_ms", "ms", "lower"),
    ("history.db_kb", "KB", "lower"),
    ("app.respond_ms", "ms", "lower"),
    ("analysis.extract_us_per_record", "us", "lower"),
    ("analysis.flows_ms", "ms", "lower"),
    ("analysis.compliance_ms", "ms", "lower"),
    ("analysis.markov_ms", "ms", "lower"),
    ("analysis.classify_ms", "ms", "lower"),
    ("live.lag_p50_ms", "ms", "lower"),
    ("live.lag_p99_ms", "ms", "lower"),
    ("live.query_p50_ms", "ms", "lower"),
    ("live.query_p90_ms", "ms", "lower"),
    ("gen.late_ms_p99", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

_NS_PER = {"us": 1e3, "ms": 1e6}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms(samples_s: list[float], pct: float) -> float:
    """A tail percentile, 0 unless ten samples lie beyond it."""
    value = percentile(samples_s, pct)
    return value * 1e3 if value is not None else 0.0


def _median_ms(samples_s: list[float]) -> float:
    """The median, which needs no samples beyond it (0 if none)."""
    return median(samples_s) * 1e3 if samples_s else 0.0


def layer_metrics(ledger: Mapping[str, Any], records: int,
                  extra: Mapping[str, float],
                  samples: Mapping[str, list[float]]
                  ) -> dict[str, float]:
    """Per-layer metrics from a merged traced ledger.

    ``records`` is how many records the traced work processed;
    ``extra`` carries values measured outside the spans (link count,
    events, sizes, overhead) and ``samples`` the sample lists in
    seconds (``lag``, ``query``, ``late``, ``deliver``).
    """
    spans = ledger["spans"]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0, 0])[0]

    def per_call(name: str, unit: str) -> float:
        count, total, _own = spans.get(name, [0, 0, 0])
        return _ratio(total, count) / _NS_PER[unit]

    def self_us_per_record(name: str) -> float:
        return _ratio(spans.get(name, [0, 0, 0])[2], records) / 1e3

    def total_us_per_record(name: str) -> float:
        return _ratio(spans.get(name, [0, 0, 0])[1], records) / 1e3

    waits = weighted_waits(
        [(end / 1e9, count) for end, count in ledger["reads"]],
        [end / 1e9 for end in ledger["renders"]])
    metrics = {
        "netstack.decode_calls_per_record":
            _ratio(calls("netstack.decode"), records),
        "netstack.decode_us_per_call": per_call("netstack.decode", "us"),
        "netstack.read_us_per_record": self_us_per_record("netstack.read"),
        "ingest.read_us_per_record": self_us_per_record("ingest.poll"),
        "ingest.empty_poll_frac":
            _ratio(ledger["empty_polls"], ledger["polls"]),
        "ingest.backlog_max_records": float(ledger["max_poll"]),
        "fleet.route_us_per_record": self_us_per_record("fleet.route"),
        "fleet.links": float(extra.get("links", 0)),
        "pipeline.self_us_per_record": self_us_per_record("pipeline.step"),
        "pipeline.events_per_record": _ratio(extra.get("events", 0),
                                             extra.get("packets", 0)),
        "parse.us_per_call": per_call("parse", "us"),
        "parse.calls_per_record": _ratio(calls("parse"), records),
        "analyzers.flows_us_per_packet":
            per_call("analyzers.flows", "us"),
        "analyzers.chains_us_per_event":
            per_call("analyzers.chains", "us"),
        "analyzers.sessions_us_per_event":
            per_call("analyzers.sessions", "us"),
        "analyzers.detector_us_per_event":
            per_call("analyzers.detector", "us"),
        "snapshots.build_ms": per_call("snapshots.build", "ms"),
        "snapshots.json_kb": float(extra.get("json_kb", 0.0)),
        "monitor.wait_ms_p50": _median_ms(waits),
        "serve.publish_ms": per_call("serve.publish", "ms"),
        "serve.serializations_per_publish":
            _ratio(ledger["serializations"], calls("serve.publish")),
        "serve.skipped_frac": float(extra.get("skipped_frac", 0.0)),
        "serve.deliver_ms_p50":
            _median_ms(samples.get("deliver", [])),
        "history.record_ms": per_call("history.record", "ms"),
        "history.query_ms": per_call("history.query", "ms"),
        "history.db_kb": float(extra.get("db_kb", 0.0)),
        "app.respond_ms": per_call("app.respond", "ms"),
        "analysis.extract_us_per_record":
            total_us_per_record("analysis.extract"),
        "analysis.flows_ms": per_call("analysis.flows", "ms"),
        "analysis.compliance_ms": per_call("analysis.compliance", "ms"),
        "analysis.markov_ms": per_call("analysis.markov", "ms"),
        "analysis.classify_ms": per_call("analysis.classify", "ms"),
        "live.lag_p50_ms": _median_ms(samples.get("lag", [])),
        "live.lag_p99_ms": _ms(samples.get("lag", []), 99.0),
        "live.query_p50_ms": _median_ms(samples.get("query", [])),
        "live.query_p90_ms": _ms(samples.get("query", []), 90.0),
        "gen.late_ms_p99": _ms(samples.get("late", []), 99.0),
        "trace.overhead_frac": float(extra.get("overhead_frac", 0.0)),
    }
    assert list(metrics) == [name for name, _u, _b in LAYER_METRICS]
    return metrics
