#!/usr/bin/env python3
"""Bytes-on-disk benchmark of the capture -> snapshot pipeline.

Usage::

    python3 ledgerbench/run.py --workload replay-fleet --seed 104 \\
        --seconds 25 --trace 0

Workloads (see ``ledgerbench/NOTES.md`` for why each exists):

``replay-fleet``    closed drains through the in-process demuxed fleet
``batch-report``    closed ``repro analyze --json`` over every report
``live-serve``      open-loop appends tailed by ``repro serve``

The seeded capture is generated once per seed/scale/code digest under
``.ledgerbench-cache/``; generation and every reference computation
run before the program is started, outside all timers. The program
under test runs in child processes (``child.py``). ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ledger of
a run whose drains alternate untraced and traced. ``--fault`` changes
only the program's input, so every workload must then fail its
checks and exit non-zero.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import scaled_seconds  # noqa: E402
from inputs import (CACHE, DEFAULT_SCALE, FAULTS, ROOT,  # noqa: E402
                    BenchInput, detect_after_us, prepare)
from layers import layer_metrics  # noqa: E402
from stats import highest_percentile, median  # noqa: E402

WORKLOADS = ("replay-fleet", "batch-report", "live-serve")
#: Set-up samples per run (the drain child plus set-up-only probes).
SETUP_SAMPLES = 9
#: Live repetitions a run makes at the least (per kind when traced).
MIN_REPS = 3
#: The seed whose output digests are pinned in ``pins.json``.
PINNED_SEED = 104
CHILD_TIMEOUT_S = 150.0
CHILD = HERE / "child.py"


class Tally:
    """Operations attempted and failed; every record, query and check
    is one operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def records(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} records "
                                 "not counted")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {name} {detail}")


def run_child(command: list[str], timeout: float = CHILD_TIMEOUT_S
              ) -> int:
    """Run one child to completion in its own process group; on a
    timeout kill the whole group."""
    process = subprocess.Popen(command, cwd=str(ROOT),
                               start_new_session=True)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return -1
    finally:
        if process.poll() is None:  # pragma: no cover - interrupted
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


def reference_render(inp: BenchInput) -> str:
    """The in-process fleet's final rendered snapshot over the clean
    capture (what ``repro monitor --demux --once --json`` prints)."""
    from repro.netstack.addresses import IPv4Address
    from repro.stream import (FleetSupervisor, LinkDemux,
                              MonitorPipelineFactory, PcapngTailSource,
                              run_monitor)
    names = {IPv4Address.parse(address): name for address, name
             in json.loads(inp.names.read_text()).items()}
    source = PcapngTailSource(str(inp.capture.with_name(
        "capture.pcapng")))
    fleet = FleetSupervisor(
        demux=LinkDemux(source, names=names),
        pipeline_factory=MonitorPipelineFactory(names=names))
    out = io.StringIO()
    try:
        run_monitor(fleet, out, json_lines=True, once=True,
                    detect_after_us=detect_after_us(inp.detect_after))
    finally:
        source.close()
    return out.getvalue()


def canonical(text_or_document) -> str:
    document = (json.loads(text_or_document)
                if isinstance(text_or_document, str)
                else text_or_document)
    return json.dumps(document, sort_keys=True)


# -- closed workloads --------------------------------------------------

def drain_command(args, inp: BenchInput, out: Path, t0: float,
                  setup_only: bool = False) -> list[str]:
    command = [sys.executable, str(CHILD), "drain",
               "--workload", args.workload,
               "--capture", str(inp.capture), "--names", str(inp.names),
               "--detect-after", inp.detect_after,
               "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--t0", repr(t0),
               "--out", str(out)]
    if setup_only:
        command.append("--setup-only")
    return command


def run_closed(args, inp: BenchInput, work: Path,
               tally: Tally) -> dict[str, float]:
    out = work / "drains.json"
    t0 = time.perf_counter()
    code = run_child(drain_command(args, inp, out, t0))
    tally.check("drain child exits 0", code == 0, f"(exit {code})")
    if code != 0 or not out.exists():
        return {}
    result = json.loads(out.read_text())
    setups = [result["setup_s"]]
    for probe in range(SETUP_SAMPLES - 1):
        probe_out = work / f"setup-{probe}.json"
        t0 = time.perf_counter()
        if run_child(drain_command(args, inp, probe_out, t0,
                                   setup_only=True)) == 0:
            setups.append(json.loads(probe_out.read_text())["setup_s"])
    tally.check("set-up probes exit 0", len(setups) == SETUP_SAMPLES)

    drains = result["drains"]
    first = drains[0]
    for drain in drains:
        tally.check("drain output is deterministic",
                    drain["digest"] == first["digest"])
        if args.workload == "batch-report":
            tally.records(inp.records,
                          max(0, inp.records - drain["packets"]))
        else:
            counted = drain["packets"] + drain["unrouted"]
            tally.records(inp.records, max(0, inp.records - counted))
    if args.workload == "batch-report":
        tally.check("report counts every packet",
                    first["packets"] == inp.records)
        tally.check("report typeIDs match extract_apdus",
                    first["i_events"] == inp.ref_i_events,
                    f"({first['i_events']} vs {inp.ref_i_events})")
    else:
        tally.check("events/failures match extract_apdus",
                    (first["events"], first["failures"])
                    == (inp.ref_events, inp.ref_failures),
                    f"({first['events']}/{first['failures']} vs "
                    f"{inp.ref_events}/{inp.ref_failures})")
        tally.check("no unrouted frames", first["unrouted"] == 0)
    if inp.seed == PINNED_SEED and inp.scale == DEFAULT_SCALE:
        pins = json.loads((HERE / "pins.json").read_text())
        if args.workload == "replay-fleet":
            tally.check("snapshot digest pinned",
                        first["digest"] == pins["snapshot_sha256"],
                        first["digest"])
            tally.check("alert count pinned",
                        first["alerts"] == pins["alerts"],
                        str(first["alerts"]))
        else:
            tally.check("report digest pinned",
                        first["digest"] == pins["report_sha256"],
                        first["digest"])

    for drain in drains:
        drain["scaled_s"] = scaled_seconds(drain["seconds"],
                                           drain["kernel_s"])
    untraced = [drain for drain in drains if not drain["traced"]]
    print(f"{args.workload}: {len(drains)} warm drains "
          f"({len(untraced)} untraced) of {inp.records} records; "
          f"drain s: {[round(d['seconds'], 3) for d in drains]}; "
          f"kernel s: {[round(d['kernel_s'], 3) for d in drains]}; "
          f"unscaled records/s: "
          f"{median([inp.records / d['seconds'] for d in untraced]):.1f}"
          f"; setup s: {[round(s, 3) for s in setups]}")
    if not args.trace:
        return {
            "setup_s": median(setups),
            "records_per_s": median([inp.records / drain["scaled_s"]
                                     for drain in untraced]),
            "peak_rss_mb": result["vm_hwm_kb"] / 1024,
        }
    traced = [drain for drain in drains if drain["traced"]]
    tally.check("traced output equals untraced",
                {d["digest"] for d in traced}
                == {d["digest"] for d in untraced})
    extra = {
        "overhead_frac": median([d["scaled_s"] for d in traced])
        / median([d["scaled_s"] for d in untraced]) - 1,
        "links": first.get("links", 0),
        "events": first.get("events", 0),
        "packets": inp.records,
        "json_kb": (first["bytes"] / 1024
                    if args.workload != "batch-report" else 0.0),
    }
    return layer_metrics(result["ledger"], inp.records * len(traced),
                         extra, {})


# -- live workload -----------------------------------------------------

def run_live(args, inp: BenchInput, work: Path,
             tally: Tally) -> dict[str, float]:
    from live import run_rep
    reference = canonical(reference_render(inp))
    reps = []
    started = time.perf_counter()

    async def measure() -> None:
        while (time.perf_counter() - started < args.seconds
               or len(reps) < MIN_REPS * (2 if args.trace else 1)):
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(await run_rep(inp, work, str(len(reps)),
                                      traced))
        for probe in range(max(0, SETUP_SAMPLES - len(reps))):
            reps.append(await run_rep(inp, work, f"probe{probe}",
                                      False, feed=False))

    asyncio.run(measure())
    fed = [rep for rep in reps if rep.fed]
    for rep in reps:
        tally.check("repro serve exits 0", rep.exit_code == 0,
                    f"(exit {rep.exit_code})")
    for rep in fed:
        covered = min(rep.covered, inp.records)
        tally.records(inp.records, inp.records - covered)
        tally.attempted += len(rep.queries)
        tally.failed += rep.query_failures
        if rep.query_failures:
            tally.problems.append(f"{rep.query_failures} queries "
                                  "failed")
        tally.check("every record covered by a pushed envelope",
                    len(rep.lags) == inp.records)
        tally.check("final envelope equals the in-process snapshot",
                    rep.final is not None
                    and canonical(rep.final) == reference)
    untraced = [rep for rep in fed if not rep.traced]
    lags = [lag for rep in untraced for lag in rep.lags]
    queries = [q for rep in untraced for q in rep.queries]
    setups = [rep.setup_s for rep in reps]
    print(f"live-serve: {len(fed)} fed repetitions of {inp.records} "
          f"records at a constant offered rate; records/s: "
          f"{[round(rep.records_per_s, 1) for rep in fed]}; "
          f"setup s: {[round(s, 3) for s in setups]}; "
          f"lag p50 {median_ms(lags)}, {tail_ms(lags)} "
          f"({len(lags)} samples); query p50 "
          f"{median_ms(queries)}, {tail_ms(queries)} "
          f"({len(queries)} samples)")
    if not args.trace:
        return {
            "setup_s": median(setups),
            "records_per_s": median([rep.records_per_s
                                     for rep in untraced]),
            "peak_rss_mb": median([rep.server.get("vm_hwm_kb", 0)
                                   for rep in untraced]) / 1024,
        }
    from tracer import empty_ledger, merge
    traced = [rep for rep in fed if rep.traced]
    ledger = empty_ledger()
    for rep in traced:
        merge(ledger, rep.server["ledger"])
    envelopes = sum(rep.envelopes for rep in traced)
    skipped = sum(rep.skipped for rep in traced)
    final = traced[-1].final or {}
    extra = {
        "overhead_frac": median([rep.server["cpu_s"] for rep in traced])
        / median([rep.server["cpu_s"] for rep in untraced]) - 1,
        "links": final.get("link_count", 0),
        "events": final.get("events", 0),
        "packets": inp.records,
        "json_kb": len(canonical(final)) / 1024,
        "skipped_frac": skipped / (skipped + envelopes)
        if envelopes else 0.0,
        "db_kb": median([rep.db_kb for rep in traced]),
    }
    samples = {
        "lag": lags, "query": queries,
        "late": [late for rep in fed for late in rep.late],
        "deliver": [d for rep in traced for d in rep.deliver],
    }
    return layer_metrics(ledger, inp.records * len(traced), extra,
                         samples)


def median_ms(samples: list[float]) -> str:
    return f"{median(samples) * 1e3:.1f} ms" if samples else "-"


def tail_ms(samples: list[float]) -> str:
    """The highest percentile with ten samples beyond it."""
    tail = highest_percentile(samples)
    return "no tail" if tail is None \
        else f"p{tail[0]:g} {tail[1] * 1e3:.1f} ms"


# -- entry point -------------------------------------------------------

def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the warm drains (or live "
                             "repetitions) of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=FAULTS, default=None,
                        help="damage the program's input (the checks "
                             "must then fail)")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    inp = prepare(args.seed, args.scale, args.fault)
    work = CACHE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if args.workload == "live-serve":
            metrics = run_live(args, inp, work, tally)
        else:
            metrics = run_closed(args, inp, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in tally.problems:
        print(problem)
    names = units()
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": names[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
