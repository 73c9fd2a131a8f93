"""The benchmark's child process: the program under test, driven.

``run.py`` starts this file once per measured process, so the
program's start-up is part of what is timed and its memory is the
child's own. Two modes:

``drain``  set up one closed workload (``replay-fleet`` or
           ``batch-report``), then drain the capture repeatedly: one
           warm-up drain, then warm drains until ``--seconds`` pass.
           Each drain is timed from its first read to its rendered
           result, and records the mean time of the host-speed
           kernel (``hostspeed.py``) run just before and just after
           it. With ``--trace 1`` the drains alternate untraced and
           traced. ``--setup-only`` stops once the workload is ready
           to read its first record.
``serve``  run ``repro serve`` with the given arguments (optionally
           traced) and record its memory and CPU time on exit.

Either mode writes one JSON result to ``--out``. Reference values and
output checks live in ``run.py``, outside every timed region.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import time_kernel  # noqa: E402
from inputs import detect_after_us, import_repro  # noqa: E402
from tracer import Tracer  # noqa: E402

import_repro()
from repro.cli import REPORTS  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.netstack.addresses import IPv4Address  # noqa: E402
from repro.stream import (FleetSupervisor, LinkDemux,  # noqa: E402
                          MonitorPipelineFactory, PcapngTailSource,
                          run_monitor)

CLOSED = ("replay-fleet", "batch-report")
#: Warm drains a run makes however short ``--seconds`` is.
MIN_DRAINS = 5
#: Idle wait between fleet steps that read nothing. A clean capture
#: ends the drain at its end of file without one; a capture whose
#: last block is cut short never does, and must end, not spin.
_POLL_SLEEP_S = 0.002
#: Idle steps before a drain that stopped moving gives up.
_IDLE_GRACE = 100


def vm_hwm_kb() -> int:
    """Peak resident set (VmHWM) of this process, in kB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class ClosedWorkload:
    """Builds and drains one closed workload; one instance per child."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.workload = args.workload
        self.capture = str(args.capture)
        self.detect_after_us = detect_after_us(args.detect_after)
        self.names = {IPv4Address.parse(address): name
                      for address, name in
                      json.loads(args.names.read_text()).items()}
        self.factory = MonitorPipelineFactory(names=self.names)

    def build(self):
        """The drain target, ready to read its first record."""
        if self.workload == "replay-fleet":
            source = PcapngTailSource(self.capture)
            fleet = FleetSupervisor(
                demux=LinkDemux(source, names=self.names),
                pipeline_factory=self.factory)
            return fleet, source
        return None, None

    def drain(self, target) -> str:
        """Run one drain to its rendered result and return it."""
        out = io.StringIO()
        if self.workload == "batch-report":
            cli_main(["analyze", self.capture, "--names",
                      str(self.args.names), "--json", "--report",
                      *REPORTS], out=out)
            return out.getvalue()
        run_monitor(
            target, out, json_lines=True, once=True,
            idle_grace=_IDLE_GRACE, poll_sleep_s=_POLL_SLEEP_S,
            detect_after_us=self.detect_after_us)
        return out.getvalue()

    def close(self, closer) -> None:
        """Tear a drained target down (outside the timed region).

        Collecting the drain's garbage here keeps it out of the next
        drain's time, and keeps the peak resident set that of one
        drain (what one ``repro monitor`` process reaches), however
        many drains a run fits."""
        if closer is not None:
            closer.close()
        gc.collect()


def summarize(workload: str, text: str) -> dict:
    summary = {"digest": hashlib.sha256(text.encode()).hexdigest(),
               "bytes": len(text)}
    document = json.loads(text)
    if workload == "batch-report":
        summary["packets"] = document["packets"]
        summary["i_events"] = sum(entry["count"] for entry
                                  in document["typeids"].values())
        return summary
    summary.update(
        packets=document["packets"], unrouted=document["unrouted"],
        events=document["events"], failures=document["failures"],
        links=document["link_count"],
        alerts=sum(link["analyzers"].get("detector", {})
                   .get("alerts", 0)
                   for link in document["links"].values()))
    return summary


def run_drains(args: argparse.Namespace) -> dict:
    workload = ClosedWorkload(args)
    tracer = Tracer() if args.trace else None
    target, closer = workload.build()
    ready = time.perf_counter()
    result: dict = {"setup_s": ready - args.t0}
    if args.setup_only:
        workload.close(closer)
        return result
    # Warm-up: finish the drain whose set-up was just timed.
    workload.drain(target)
    workload.close(closer)
    time_kernel()
    kernel_s = time_kernel()
    drains = []
    started = time.perf_counter()
    while (time.perf_counter() - started < args.seconds
           or len(drains) < MIN_DRAINS):
        traced = bool(args.trace) and len(drains) % 2 == 1
        if traced:
            tracer.install()
        target, closer = workload.build()
        begin = time.perf_counter()
        text = workload.drain(target)
        seconds = time.perf_counter() - begin
        workload.close(closer)
        if traced:
            tracer.uninstall()
        kernel_before, kernel_s = kernel_s, time_kernel()
        summary = summarize(args.workload, text)
        summary.update(traced=traced, seconds=seconds,
                       kernel_s=(kernel_before + kernel_s) / 2)
        drains.append(summary)
    result.update(drains=drains, vm_hwm_kb=vm_hwm_kb(),
                  ledger=tracer.ledger if tracer is not None else None)
    return result


def run_serve(args: argparse.Namespace) -> dict:
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    cpu = time.process_time()
    cli_main(args.cli)
    cpu = time.process_time() - cpu
    if tracer is not None:
        tracer.uninstall()
    return {"cpu_s": cpu, "vm_hwm_kb": vm_hwm_kb(),
            "ledger": tracer.ledger if tracer is not None else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    drain = sub.add_parser("drain")
    drain.add_argument("--workload", choices=CLOSED, required=True)
    drain.add_argument("--capture", type=Path, required=True)
    drain.add_argument("--names", type=Path, required=True)
    drain.add_argument("--detect-after", required=True)
    drain.add_argument("--seconds", type=float, default=10.0)
    drain.add_argument("--trace", type=int, choices=(0, 1), default=0)
    drain.add_argument("--setup-only", action="store_true")
    drain.add_argument("--t0", type=float, required=True,
                       help="parent perf_counter() just before spawn")
    drain.add_argument("--out", type=Path, required=True)
    serve = sub.add_parser("serve")
    serve.add_argument("--trace", type=int, choices=(0, 1), default=0)
    serve.add_argument("--out", type=Path, required=True)
    serve.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "drain":
        result = run_drains(args)
    else:
        if args.cli[:1] == ["--"]:
            args.cli = args.cli[1:]
        result = run_serve(args)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
