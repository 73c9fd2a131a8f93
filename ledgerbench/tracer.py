"""In-memory spans around the public calls of each layer.

The benchmark never edits the program: :class:`Tracer` wraps public
functions and methods from outside (``install``) and puts the
originals back (``uninstall``), so traced and untraced drains can
alternate inside one process. Every wrapped call is a span; a span's
self time is its duration minus the time spent in wrapped calls it
made (kept per thread, since ``repro serve`` runs its monitor in a
thread beside the asyncio loop). Spans are aggregated as they close —
calls, total and self nanoseconds per span name — plus a few event
lists the per-layer metrics need (when records were read, when
results were rendered, when snapshots were published).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Any, Callable

#: (module, attribute path, span name) of every traced public call.
LAYER_CALLS = (
    ("repro.netstack.packet", "CapturedPacket.decode", "netstack.decode"),
    ("repro.netstack.pcapng", "parse_epb_body", "netstack.read"),
    ("repro.stream.ingest", "PcapngTailSource.poll", "ingest.poll"),
    ("repro.stream.fleet", "LinkDemux.pump", "fleet.route"),
    ("repro.stream.fleet", "FleetSupervisor.snapshot", "snapshots.build"),
    ("repro.stream.pipeline", "StreamPipeline.step", "pipeline.step"),
    ("repro.iec104.codec", "TolerantParser.parse_stream", "parse"),
    ("repro.stream.analyzers", "LiveFlowTable.on_packet",
     "analyzers.flows"),
    ("repro.stream.analyzers", "OnlineChains.on_event",
     "analyzers.chains"),
    ("repro.stream.analyzers", "RollingSessionWindows.on_event",
     "analyzers.sessions"),
    ("repro.stream.detector", "OnlineCombinedDetector.on_event",
     "analyzers.detector"),
    ("repro.serve.broadcast", "SnapshotHub.publish", "serve.publish"),
    ("repro.serve.history", "HistoryStore.record", "history.record"),
    ("repro.serve.history", "HistoryStore.link_history",
     "history.query"),
    ("repro.serve.history", "HistoryStore.fleet_at", "history.query"),
    ("repro.serve.app", "ServeApp.respond", "app.respond"),
    ("repro.analysis.apdu_stream", "extract_apdus", "analysis.extract"),
    ("repro.analysis.flows", "FlowAnalysis.from_packets",
     "analysis.flows"),
    ("repro.analysis.compliance", "analyze_compliance",
     "analysis.compliance"),
    ("repro.analysis.markov", "ConnectionChains.from_extraction",
     "analysis.markov"),
    ("repro.analysis.classification", "classify_all",
     "analysis.classify"),
)

#: Event lists and counters a ledger carries besides its spans.
_LISTS = ("reads", "renders", "publishes")
_SUMS = ("polls", "empty_polls", "serializations")
_MAXES = ("max_poll",)


def empty_ledger() -> dict[str, Any]:
    ledger: dict[str, Any] = {"spans": {}}
    for key in _LISTS:
        ledger[key] = []
    for key in _SUMS + _MAXES:
        ledger[key] = 0
    return ledger


def merge(into: dict[str, Any], other: dict[str, Any]) -> None:
    """Add ``other``'s spans, events and counters to ``into``."""
    for name, (calls, total, own) in other["spans"].items():
        entry = into["spans"].setdefault(name, [0, 0, 0])
        entry[0] += calls
        entry[1] += total
        entry[2] += own
    for key in _LISTS:
        into[key].extend(other[key])
    for key in _SUMS:
        into[key] += other[key]
    for key in _MAXES:
        into[key] = max(into[key], other[key])


class Tracer:
    def __init__(self) -> None:
        self.ledger = empty_ledger()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- hooks run after a traced call returns ------------------------

    def _on_poll(self, args, result, start, end) -> None:
        ledger = self.ledger
        ledger["polls"] += 1
        if not result:
            ledger["empty_polls"] += 1
        ledger["max_poll"] = max(ledger["max_poll"], len(result))
        ledger["reads"].append((end, len(result)))

    def _on_render(self, args, result, start, end) -> None:
        self.ledger["renders"].append(end)

    def _on_publish(self, args, result, start, end) -> None:
        self.ledger["publishes"].append((result.seq, end))
        self.ledger["serializations"] = args[0].serializations

    def _hook_for(self, name: str) -> Callable | None:
        return {"ingest.poll": self._on_poll,
                "snapshots.build": self._on_render,
                "serve.publish": self._on_publish}.get(name)

    # -- wrapping -----------------------------------------------------

    def _wrap(self, func: Callable, name: str) -> Callable:
        tracer = self
        hook = self._hook_for(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                children = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                with tracer._lock:
                    entry = tracer.ledger["spans"].setdefault(
                        name, [0, 0, 0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - children
            if hook is not None:
                with tracer._lock:
                    hook(args, result, start, end)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer call (idempotent while installed)."""
        if self._patches:
            return
        for module_name, path, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            owner_name, _dot, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr,
                                classmethod(self._wrap(raw.__func__,
                                                       name)))
                else:
                    self._patch(owner, attr, self._wrap(raw, name))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            # Patch every loaded repro module that imported the
            # function by name, so calls through re-exports trace too.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") \
                        and other.__dict__.get(attr) is original:
                    self._patch(other, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
