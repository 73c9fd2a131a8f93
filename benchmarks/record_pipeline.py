"""Record the capture→analysis pipeline's performance trajectory.

Produces/refreshes ``BENCH_pipeline.json`` at the repo root — a
machine-readable before/after record of the pipeline fast paths
(docs/performance.md):

* ``before`` — fixed measurements taken on the tree *prior* to the
  fast-path work (buffered pcap scan, zero-copy decode, windowed
  generation, capture cache), at ``time_scale=0.05``;
* ``after`` — the same metrics measured on the current tree;
* ``speedup`` — ``before / after`` per metric (>1 is faster).

Usage::

    python benchmarks/record_pipeline.py            # refresh "after"
    python benchmarks/record_pipeline.py --check    # CI regression gate

``--check`` re-measures only the cheap, machine-stable gate metrics
(strict parser, streaming, Modbus and frame decode, period detection,
sharded fleet)
and exits non-zero when any is more than ``--threshold``× (default
2.0) slower than the committed ``after`` value. A missing or
unreadable committed record downgrades the gate to a warning, so the
first run on a fresh branch cannot fail.
"""

from __future__ import annotations

import argparse
import io
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from _common import load_json, save_json  # noqa: E402

from repro.analysis import extract_apdus  # noqa: E402
from repro.datasets import CaptureConfig, generate_capture  # noqa: E402
from repro.iec104 import (IFrame, ShortFloat, StrictParser,  # noqa: E402
                          TolerantParser, TypeID, measurement)
from repro.netstack.pcap import (PcapReader, PcapRecord,  # noqa: E402
                                 PcapWriter)

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_pipeline.json"

#: Capture scale the generation/extraction metrics are measured at.
SCALE = 0.05

#: Seed-state numbers (same methodology, measured before the fast-path
#: work landed). Kept literal so the trajectory survives in git even
#: though the slow paths are gone.
BEFORE = {
    "strict_parse_ns_per_frame": 14352.6,
    "tolerant_parse_ns_per_frame": 14264.7,
    "extract_apdus_ns_per_packet": 28246.0,
    "pcap_read_ns_per_record": 2118.3,
    "generate_y1_wall_s": 3.475,
    "repeat_acquire_wall_s": 3.475,  # no cache: acquire == regenerate
}

#: The CI gate metrics: cheap to measure and independent of machine
#: I/O, so a 2x drift reliably means a code regression. The stream
#: metric covers the repro.stream pipeline (ByteChunk -> decode ->
#: dispatch) the same way the parser metric covers the codec; the
#: packet metric covers frame decode (bytes -> CapturedPacket,
#: checksums verified); the period metric covers the timing report's
#: per-session autocorrelation (analysis.bandwidth.detect_period); the
#: fleet metric covers the sharded supervisor end to end (worker
#: spawn, per-shard demux, snapshot merge).
GATE_METRICS = ("strict_parse_ns_per_frame",
                "stream_decode_ns_per_frame",
                "modbus_decode_ns_per_frame",
                "packet_decode_ns_per_frame",
                "period_detect_us_per_session",
                "fleet_ns_per_packet_w1")

#: Extra --check headroom per metric: process spawn and pipe IPC make
#: the sharded metric far noisier than the pure-CPU gates, especially
#: on shared single-core CI runners.
GATE_HEADROOM = {"fleet_ns_per_packet_w1": 2.0}


def _frames(count: int = 2000) -> list[bytes]:
    frames = []
    for index in range(count):
        asdu = measurement(TypeID.M_ME_NC_1, 2001 + index % 20,
                           ShortFloat(value=50.0 + index % 10))
        frames.append(IFrame(asdu=asdu,
                             send_seq=index % (1 << 15)).encode())
    return frames


def _best_ns(func, rounds: int = 5) -> float:
    best = None
    for _ in range(rounds):
        start = time.perf_counter_ns()
        func()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return float(best)


def measure_parsers(frame_count: int = 2000) -> dict:
    frames = _frames(frame_count)

    def strict():
        parser = StrictParser()
        for frame in frames:
            parser.parse_frame(frame)

    def tolerant():
        parser = TolerantParser()
        for frame in frames:
            parser.parse_frame(frame, link_key="x")

    return {
        "strict_parse_ns_per_frame":
            round(_best_ns(strict) / len(frames), 1),
        "tolerant_parse_ns_per_frame":
            round(_best_ns(tolerant) / len(frames), 1),
    }


def measure_stream(frame_count: int = 2000) -> dict:
    """Streaming throughput: synthetic frames through the event bus."""
    from repro.stream import (ByteChunk, ListSource, OnlineChains,
                              StreamPipeline)

    frames = _frames(frame_count)
    chunks = [ByteChunk(time_us=(index + 1) * 1000, src="C1", dst="O1",
                        data=frame)
              for index, frame in enumerate(frames)]

    def run():
        pipeline = StreamPipeline(ListSource(chunks),
                                  analyzers=[OnlineChains()])
        pipeline.run_until_exhausted()

    return {
        "stream_decode_ns_per_frame":
            round(_best_ns(run) / len(frames), 1),
    }


def measure_modbus(frame_count: int = 2000) -> dict:
    """Modbus/TCP MBAP decode throughput through the stream decoder.

    Mirrors the IEC 104 ``stream_decode_ns_per_frame`` gate one
    protocol over: synthetic read-holding-registers ADUs pushed
    byte-stream-wise through ``ModbusStreamDecoder`` — framing,
    resync bookkeeping and PDU decode, no packet or analyzer cost.
    """
    from repro.protocols.modbus import (MODBUS_SPEC, ModbusAdu,
                                        READ_HOLDING_REGISTERS)

    frames = [ModbusAdu(transaction=index & 0xFFFF, unit=1,
                        function=READ_HOLDING_REGISTERS,
                        data=bytes([4]) + (index & 0xFFFF).to_bytes(2, "big")
                        + ((index * 3) & 0xFFFF).to_bytes(2, "big")).encode()
              for index in range(frame_count)]

    def run():
        parser = MODBUS_SPEC.new_parser()
        decoder = MODBUS_SPEC.new_stream_decoder(parser, "bench")
        for frame in frames:
            decoder.feed(frame)

    return {
        "modbus_decode_ns_per_frame":
            round(_best_ns(run) / len(frames), 1),
    }


def measure_decode(frame_count: int = 2000) -> dict:
    """Frame decode: Ethernet bytes -> ``CapturedPacket``.

    Synthetic IEC 104 I-frames carried in PSH/ACK segments between two
    hosts, decoded with checksums verified — the per-frame cost every
    capture path (batch, demux, standalone pipeline) pays once.
    """
    from repro.netstack import PSH_ACK, CapturedPacket, TCPSegment, ipv4, mac

    src_mac, dst_mac = mac("02:00:00:00:00:01"), mac("02:00:00:00:00:02")
    src_ip, dst_ip = ipv4("10.0.0.1"), ipv4("10.1.0.7")
    encoded = []
    seq = 0
    for index, apdu in enumerate(_frames(frame_count)):
        segment = TCPSegment(src_port=2404, dst_port=40000 + index % 8,
                             seq=seq, ack=1, flags=PSH_ACK,
                             payload=apdu)
        seq += len(apdu)
        encoded.append((index, CapturedPacket.build(
            index, src_mac, dst_mac, src_ip, dst_ip, segment,
            ip_id=index & 0xFFFF).encode()))

    def run():
        for time_us, data in encoded:
            CapturedPacket.decode(time_us, data)

    return {
        "packet_decode_ns_per_frame":
            round(_best_ns(run) / len(encoded), 1),
    }


def measure_period(sessions: int = 20) -> dict:
    """Period detection: one ``detect_period`` call per session.

    Synthetic keep-alive sessions shaped like a Y1 capture's at
    ``time_scale=0.01``: a ~6,300 s span of 30 s ticks with up to
    ±0.5 s of seeded jitter, binned at 1 s with ``max_period=600``
    (the timing report's settings).
    """
    import random

    from repro.analysis.bandwidth import detect_period

    rng = random.Random(104)
    series = [[tick * 30.0 + rng.uniform(-0.5, 0.5)
               for tick in range(211)] for _ in range(sessions)]

    def run():
        for timestamps in series:
            detect_period(timestamps, bin_size=1.0, max_period=600.0)

    return {
        "period_detect_us_per_session":
            round(_best_ns(run) / len(series) / 1000, 1),
    }


def measure_fleet(worker_counts: tuple[int, ...] = (1, 2, 4)) -> dict:
    """Sharded fleet wall-clock per packet, per worker count.

    Times the whole sharded drive loop — worker spawn, per-shard
    demux over one merged pcapng, pipeline analysis, typed snapshot
    merge — so the numbers are honest end-to-end costs. On a
    single-core host the multi-worker values record the sharding
    *overhead* (spawn + pipe IPC on top of the same CPU); the
    parallel win only shows up with real cores to spread over.
    """
    from repro.netstack.pcapng import write_pcapng
    from repro.stream import (MonitorPipelineFactory,
                              ShardedFleetSupervisor)

    capture = generate_capture(1, CaptureConfig(time_scale=0.001))
    names = capture.host_names()
    records = [PcapRecord(time_us=packet.time_us, data=packet.encode())
               for packet in capture.packets]
    results: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        merged = pathlib.Path(tmp) / "merged.pcapng"
        write_pcapng(merged, records)
        factory = MonitorPipelineFactory(names=names)
        for workers in worker_counts:
            def run(workers: int = workers) -> None:
                with ShardedFleetSupervisor(
                        factory, workers=workers, path=str(merged),
                        names=names) as fleet:
                    while True:
                        moved = fleet.step()
                        if not moved and fleet.exhausted:
                            break
                        if not moved:
                            time.sleep(0.005)
                    fleet.flush()
                    fleet.snapshot()

            results[f"fleet_ns_per_packet_w{workers}"] = round(
                _best_ns(run, rounds=2) / len(records), 1)
    return results


def measure_serve(clients: int = 5000, rounds: int = 3) -> dict:
    """Snapshot fan-out cost per subscriber for one poll.

    Times one ``SnapshotHub.publish`` reaching ``clients`` concurrent
    subscribers — the serialized payload and the WebSocket frame are
    built once and shared by reference, so this is pure wake-up and
    delivery cost, flat in payload size. Not a CI gate metric: the
    asyncio scheduler's wake-up cost is too host-dependent.
    """
    import asyncio

    from repro.serve import SnapshotHub
    from repro.stream import LinkSnapshot, StageCounters

    snapshot = LinkSnapshot(
        link="C1-O12", time_us=1_000_000, packets=100, events=90,
        failures=0, late_items=0, order_violations=0,
        reorder_pending=0, reassemblers=0,
        stages={"ingest": StageCounters(received=100, emitted=100)},
        eviction={"sweeps": 1},
        analyzers={"chains": {"connections": 3}})

    async def fanout() -> float:
        hub = SnapshotHub()
        hub.bind(asyncio.get_running_loop())

        async def subscriber() -> int:
            async for payload, _skipped in hub.subscribe(
                    start_with_latest=False):
                return payload.seq
            return 0

        tasks = [asyncio.ensure_future(subscriber())
                 for _ in range(clients)]
        await asyncio.sleep(0)  # let every subscriber start waiting
        start = time.perf_counter_ns()
        hub.publish(snapshot)
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter_ns() - start
        assert hub.serializations == 1
        hub.close()
        return float(elapsed)

    best = min(asyncio.run(fanout()) for _ in range(rounds))
    return {"serve_fanout_ns_per_client": round(best / clients, 1)}


def measure_pipeline(scale: float = SCALE) -> dict:
    """Generation, cached re-acquisition, extraction and pcap read."""
    import os

    from repro.perf import cached_generate

    results: dict = {}
    start = time.perf_counter()
    capture = generate_capture(1, CaptureConfig(time_scale=scale))
    results["generate_y1_wall_s"] = round(time.perf_counter() - start, 3)
    results["generate_y1_packets"] = len(capture.packets)

    # Repeat acquisition through the content-addressed cache: one miss
    # (generate + store), then time the hit — what every benchmark run
    # after the first pays.
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            cached_generate(1, CaptureConfig(time_scale=scale))
            start = time.perf_counter()
            cached_generate(1, CaptureConfig(time_scale=scale))
            results["repeat_acquire_wall_s"] = round(
                time.perf_counter() - start, 3)
        finally:
            del os.environ["REPRO_CACHE_DIR"]

    from repro.analysis import PacketCapture
    subset = PacketCapture(packets=capture.packets[:20000],
                           names=capture.host_names())
    results["extract_apdus_ns_per_packet"] = round(
        _best_ns(lambda: extract_apdus(subset), rounds=3)
        / len(subset.packets), 1)

    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    for packet in capture.packets:
        writer.write(PcapRecord(time_us=packet.time_us,
                                data=packet.encode()))
    raw = buffer.getvalue()

    def read_all():
        return sum(1 for _ in PcapReader(io.BytesIO(raw)))

    results["pcap_read_ns_per_record"] = round(
        _best_ns(read_all, rounds=3) / len(capture.packets), 1)

    # Full streaming pipeline (frame -> reassemble -> decode ->
    # dispatch with the standard analyzer set) over the same subset
    # the batch extract_apdus metric uses.
    from repro.stream import (CaptureSource, LiveFlowTable,
                              OnlineChains, StreamPipeline)

    def stream_all():
        pipeline = StreamPipeline(
            CaptureSource(subset),
            analyzers=[LiveFlowTable(), OnlineChains()])
        pipeline.run_until_exhausted()

    results["stream_pipeline_ns_per_packet"] = round(
        _best_ns(stream_all, rounds=3) / len(subset.packets), 1)
    return results


def build_document(after: dict) -> dict:
    speedup = {metric: round(BEFORE[metric] / after[metric], 2)
               for metric in BEFORE if after.get(metric)}
    return {"scale": SCALE, "before": BEFORE, "after": after,
            "speedup": speedup}


def cmd_record(args) -> int:
    after = measure_parsers()
    after.update(measure_stream())
    after.update(measure_modbus())
    after.update(measure_decode())
    after.update(measure_period())
    after.update(measure_fleet())
    after.update(measure_serve())
    after.update(measure_pipeline())
    document = build_document(after)
    save_json(args.out, document)
    print(f"wrote {args.out}")
    for metric, ratio in sorted(document["speedup"].items()):
        print(f"  {metric}: {ratio}x")
    return 0


def cmd_check(args) -> int:
    committed = load_json(args.out)
    measured = measure_parsers()
    measured.update(measure_stream())
    measured.update(measure_modbus())
    measured.update(measure_decode())
    measured.update(measure_period())
    measured.update(measure_fleet(worker_counts=(1,)))
    failed = []
    for metric in GATE_METRICS:
        value = measured[metric]
        unit = "us" if "_us_" in metric else "ns"
        baseline = (committed or {}).get("after", {}).get(metric)
        if not baseline:
            print(f"WARNING: no committed baseline for {metric} at "
                  f"{args.out}; measured {value} {unit} (gate skipped)")
            continue
        limit = args.threshold * GATE_HEADROOM.get(metric, 1.0)
        ratio = value / baseline
        print(f"{metric}: measured {value} {unit} vs committed "
              f"{baseline} {unit} ({ratio:.2f}x, limit {limit:.1f}x)")
        if ratio > limit:
            failed.append(metric)
    if failed:
        print(f"FAIL: regressed past the per-metric limit vs the "
              f"committed baseline: {', '.join(failed)}")
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=pathlib.Path, default=RESULT_PATH,
                        help="result path (default: BENCH_pipeline.json"
                             " at the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="regression gate: compare a fresh "
                             "strict-parser measurement against the "
                             "committed record")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="--check failure ratio (default 2.0)")
    args = parser.parse_args(argv)
    return cmd_check(args) if args.check else cmd_record(args)


if __name__ == "__main__":
    raise SystemExit(main())
