"""The ``live-serve`` workload: an open-loop feed into ``repro serve``.

One repetition starts ``repro serve --follow --demux --history`` (via
``child.py serve``, at the program's default snapshot interval) on an
empty pcapng, connects one WebSocket subscriber, then appends the
capture's records on a fixed schedule: the capture's own
inter-arrival shape, scaled to ``LIVE_RATE`` records per second. One
HTTP client reads ``/fleet`` and a link's history at ``QUERY_RATE``
while ingestion writes. Both connections and the generator run on one
asyncio loop in the benchmark process. The mix is synthetic: the
program's cadence, but a rate and a read load the benchmark chose
(``NOTES.md`` gives the basis of each).

Lag is taken per record from its *due* time to the first pushed
envelope whose snapshot covers it (``packets + unrouted`` is a
file-order prefix, since the fleet finishes every record it reads
before it snapshots). The feed pauses once, right after the record
that crosses the DETECT switch time, until an envelope covers it: a
closed drain flips after exactly that record too (it closes a read
batch), so the final envelope must equal the in-process drain's final
snapshot. The pause shifts the due times of every later record.

Throughput is the records the envelopes delivered over the span of the
feed: first due time to the write of the last record, less the pause.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import ROOT, BenchInput, import_repro
from stats import open_loop_lags

import_repro()
from repro.serve.wire import (OP_CLOSE, OP_TEXT,  # noqa: E402
                              TEST_MASK_KEY, client_handshake,
                              close_frame, read_frame)

#: Offered load, records per second: about a third of the rate an
#: in-process replay drains at on a 2-core host. A constant, so the
#: load is the same on every commit.
LIVE_RATE = 2000.0
#: HTTP reads per second while the feed runs: the lowest round rate
#: at which the three untraced repetitions of a traced run hold the
#: 100 reads that a p90 with ten samples beyond it needs.
QUERY_RATE = 20.0
START_LEAD_S = 0.05
#: How long to wait for an envelope covering a record: a few of the
#: program's default 2 s snapshot intervals.
COVER_TIMEOUT_S = 10.0
PROCESS_TIMEOUT_S = 60.0

CHILD = Path(__file__).resolve().parent / "child.py"


@dataclass
class Rep:
    """What one repetition measured."""

    traced: bool
    fed: bool
    setup_s: float
    covered: int = 0
    records_per_s: float = 0.0
    lags: list[float] = field(default_factory=list)
    queries: list[float] = field(default_factory=list)
    query_failures: int = 0
    late: list[float] = field(default_factory=list)
    deliver: list[float] = field(default_factory=list)
    envelopes: int = 0
    skipped: int = 0
    final: dict | None = None
    server: dict = field(default_factory=dict)
    db_kb: float = 0.0
    exit_code: int | None = None


async def _http_get(host: str, port: int, path: str
                    ) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n\r\n"
                 .encode("latin-1"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _sep, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


class Subscriber:
    """The WebSocket client: records when each envelope arrived and
    how many records it covers."""

    def __init__(self, reader: asyncio.StreamReader):
        self.reader = reader
        self.covers: list[tuple[float, int]] = []
        self.receipts: list[tuple[int, float]] = []
        self.covered = 0
        self.skipped = 0
        self.final: dict | None = None
        self.links: list[str] = []
        self._changed = asyncio.Event()

    async def run(self) -> None:
        while True:
            frame = await read_frame(self.reader)
            if frame is None or frame[0] == OP_CLOSE:
                break
            if frame[0] != OP_TEXT:
                continue
            now = time.perf_counter()
            document = json.loads(frame[1])
            if "snapshot" not in document:
                self.skipped += document.get("skipped", 0)
                continue
            snapshot = document["snapshot"]
            covered = snapshot["packets"] + snapshot["unrouted"]
            self.covers.append((now, covered))
            self.receipts.append((document["seq"], now))
            self.covered = max(self.covered, covered)
            self.final = snapshot
            if not self.links:
                self.links = sorted(snapshot["links"])
            self._changed.set()

    async def wait_covered(self, count: int, timeout: float) -> bool:
        deadline = time.perf_counter() + timeout
        while self.covered < count:
            left = deadline - time.perf_counter()
            if left <= 0:
                return False
            self._changed.clear()
            try:
                await asyncio.wait_for(self._changed.wait(), left)
            except asyncio.TimeoutError:
                return False
        return True


def _schedule(times: list[int]) -> list[float]:
    """Due offsets (s) keeping the capture's inter-arrival shape at a
    mean of ``LIVE_RATE`` records per second."""
    span = times[-1] - times[0]
    duration = len(times) / LIVE_RATE
    return [(t - times[0]) / span * duration for t in times]


async def _feed(path: Path, inp: BenchInput, sub: Subscriber,
                rep: Rep) -> tuple[list[float], float]:
    """Append every block on schedule; returns each record's due and
    the feed's span (first due to last write, less the pause)."""
    blocks, times = inp.blocks, inp.block_times
    offsets = _schedule(times)
    pause = inp.boundary_index
    due = [0.0] * len(blocks)
    base = time.perf_counter() + START_LEAD_S
    held = 0.0
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        index = 0
        while index < len(blocks):
            wait = base + offsets[index] - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            now = time.perf_counter()
            end = index
            while end < len(blocks) and base + offsets[end] <= now:
                due[end] = base + offsets[end]
                end += 1
                if end - 1 == pause:
                    break
            end = max(end, index + 1)
            due[index] = base + offsets[index]
            os.write(fd, b"".join(blocks[index:end]))
            wrote = time.perf_counter()
            rep.late.extend(wrote - due[k] for k in range(index, end))
            index = end
            if index - 1 == pause:
                await sub.wait_covered(pause + 1, COVER_TIMEOUT_S)
                # Keep the inter-arrival gaps: the switch record is
                # now treated as due at the moment the feed resumed.
                resumed = time.perf_counter()
                held = resumed - wrote
                base = resumed - offsets[pause]
    finally:
        os.close(fd)
    return due, wrote - due[0] - held


async def _query(host: str, port: int, sub: Subscriber, rep: Rep,
                 stop: asyncio.Event) -> None:
    """Fixed-rate reads of /fleet and one link's history; latency is
    taken from each read's due time."""
    sent = 0
    base = time.perf_counter()
    while not stop.is_set():
        due = base + sent / QUERY_RATE
        wait = due - time.perf_counter()
        if wait > 0:
            try:
                await asyncio.wait_for(stop.wait(), wait)
                break
            except asyncio.TimeoutError:
                pass
        path = ("/fleet" if sent % 2 == 0
                else f"/links/{sub.links[0]}/history?limit=20")
        sent += 1
        try:
            status, body = await _http_get(host, port, path)
            json.loads(body)
            ok = status == 200
        except (OSError, ValueError, IndexError):
            ok = False
        rep.queries.append(time.perf_counter() - due)
        if not ok:
            rep.query_failures += 1


async def run_rep(inp: BenchInput, work: Path, tag: str, traced: bool,
                  feed: bool = True) -> Rep:
    """One server lifetime; ``feed=False`` only times its set-up."""
    capture = work / f"live-{tag}.pcapng"
    capture.write_bytes(inp.header)
    database = work / f"live-{tag}.db"
    out = work / f"serve-{tag}.json"
    command = [sys.executable, str(CHILD), "serve",
               "--trace", str(int(traced)), "--out", str(out), "--",
               "serve", str(capture), "--demux", "--follow", "--port", "0",
               "--history", str(database),
               "--names", str(inp.names),
               "--detect-after", inp.detect_after]
    # The server's stderr is kept aside and shown only if it fails.
    stderr = work / f"serve-{tag}.stderr"
    with open(stderr, "wb") as errors:
        started = time.perf_counter()
        process = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, stderr=errors,
            cwd=str(ROOT), start_new_session=True)
        try:
            rep = await _drive(process, inp, capture, database, out,
                               traced, started, feed)
        finally:
            if process.returncode is None:
                os.killpg(process.pid, signal.SIGKILL)
                await process.wait()
    if rep.exit_code != 0:
        sys.stdout.write(stderr.read_text())
    return rep


async def _drive(process, inp: BenchInput, capture: Path,
                 database: Path, out: Path, traced: bool,
                 started: float, feed: bool) -> Rep:
    line = await asyncio.wait_for(process.stdout.readline(),
                                  PROCESS_TIMEOUT_S)
    match = re.search(rb"http://([0-9.]+):([0-9]+)", line)
    if match is None:
        raise RuntimeError(f"repro serve did not start: {line!r}")
    host, port = match.group(1).decode(), int(match.group(2))
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(client_handshake(host, port))
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    if b" 101 " not in head.split(b"\r\n", 1)[0]:
        raise RuntimeError(f"websocket refused: {head!r}")
    rep = Rep(traced=traced, fed=feed,
              setup_s=time.perf_counter() - started)
    sub = Subscriber(reader)
    listener = asyncio.ensure_future(sub.run())
    if feed:
        stop = asyncio.Event()
        generator = asyncio.ensure_future(_feed(capture, inp, sub, rep))
        await sub.wait_covered(1, COVER_TIMEOUT_S)
        reads = asyncio.ensure_future(_query(host, port, sub, rep, stop))
        due, span = await generator
        await sub.wait_covered(len(due), COVER_TIMEOUT_S)
        stop.set()
        await reads
        rep.lags = open_loop_lags(due, sub.covers)
        rep.records_per_s = min(sub.covered, len(due)) / span
    process.send_signal(signal.SIGINT)
    await asyncio.wait_for(listener, PROCESS_TIMEOUT_S)
    writer.write(close_frame(mask_key=TEST_MASK_KEY))
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass
    await asyncio.wait_for(process.communicate(), PROCESS_TIMEOUT_S)
    rep.exit_code = process.returncode
    rep.covered = sub.covered
    rep.envelopes = len(sub.receipts)
    rep.skipped = sub.skipped
    rep.final = sub.final
    if out.exists():
        rep.server = json.loads(out.read_text())
    if database.exists():
        rep.db_kb = database.stat().st_size / 1024
    ledger = rep.server.get("ledger")
    if ledger:
        published = {seq: end / 1e9 for seq, end in ledger["publishes"]}
        rep.deliver = [arrival - published[seq]
                       for seq, arrival in sub.receipts
                       if seq in published]
    return rep
