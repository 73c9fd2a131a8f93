"""The demux decodes each frame once; malformed frames are counted.

``LinkDemux`` routes by a header peek and decodes only the frames it
accepts, once each. A frame that peeks as TCP over IPv4 but does not
decode — a bad header checksum, a header cut short — stays routed to
its link and counts as a ``frame``-stage error there, never an
exception. The in-process demux, the sharded fleet and a standalone
run over the pre-split link file must all agree on that count, and on
everything else.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.datasets import CaptureConfig, generate_capture
from repro.netstack.packet import CapturedPacket
from repro.netstack.pcap import PcapRecord, write_pcap
from repro.netstack.pcapng import write_pcapng
from repro.stream import (FleetSupervisor, LinkDemux, ListSource,
                          MonitorPipelineFactory, PcapTailSource,
                          ShardAccept, StreamPipeline)

#: Ethernet header + the IPv4 TTL offset.
TTL_OFFSET = 14 + 8


def flip_ttl(data: bytes) -> bytes:
    """The frame with its TTL changed, so the IPv4 checksum fails."""
    return data[:TTL_OFFSET] + bytes([data[TTL_OFFSET] ^ 0x01]) \
        + data[TTL_OFFSET + 1:]


def cut_tcp_header(data: bytes) -> bytes:
    """The frame cut inside its TCP header (IPv4 header intact)."""
    return data[:14 + 20 + 10]


CORRUPTIONS = {"bad-checksum": flip_ttl, "truncated": cut_tcp_header}


def link_name(packet: CapturedPacket, names) -> str:
    src = names.get(packet.ip.src, str(packet.ip.src))
    dst = names.get(packet.ip.dst, str(packet.ip.dst))
    return "-".join(sorted((src, dst)))


@pytest.fixture(scope="module")
def capture():
    generated = generate_capture(1, CaptureConfig(time_scale=0.001))
    records = [PcapRecord(time_us=packet.time_us, data=packet.encode())
               for packet in generated.packets]
    return generated.host_names(), records


def corrupt(records, how):
    """The records with the middle one corrupted, and its index."""
    index = len(records) // 2
    bad = PcapRecord(time_us=records[index].time_us,
                     data=CORRUPTIONS[how](records[index].data))
    return records[:index] + [bad] + records[index + 1:], index


def write_merged(tmp_path, names, records):
    path = tmp_path / "merged.pcapng"
    write_pcapng(path, records)
    path.with_suffix(".names.json").write_text(json.dumps(
        {str(address): name for address, name in names.items()}))
    return path


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_decode_raises_for_the_corruption(capture, how):
    _names, records = capture
    data = CORRUPTIONS[how](records[len(records) // 2].data)
    with pytest.raises(ValueError):
        CapturedPacket.decode(0, data)


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_standalone_pipeline_counts_frame_error(capture, how):
    _names, records = capture
    bad = PcapRecord(time_us=records[0].time_us,
                     data=CORRUPTIONS[how](records[0].data))
    pipeline = StreamPipeline(ListSource([bad, records[1]]))
    pipeline.run_until_exhausted()
    frame = pipeline.counters["frame"]
    assert (frame.received, frame.emitted, frame.errors) == (2, 1, 1)


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_demuxed_link_equals_split_run(capture, tmp_path, how):
    names, clean = capture
    records, index = corrupt(clean, how)
    name = link_name(CapturedPacket.decode(0, clean[index].data), names)
    factory = MonitorPipelineFactory(names=names)
    demux = LinkDemux(ListSource(records), names=names)
    fleet = FleetSupervisor(demux=demux, pipeline_factory=factory)
    fleet.run_until_exhausted()
    assert demux.unrouted == 0
    demuxed = fleet.pipeline(name).link_snapshot()
    assert demuxed.stages["frame"].errors == 1

    split = [record for record in records
             if record is records[index]
             or link_name(CapturedPacket.decode(0, record.data),
                          names) == name]
    path = tmp_path / f"{name}.pcap"
    write_pcap(path, split)
    source = PcapTailSource(path, follow=False)
    try:
        standalone = factory(name, source)
        standalone.run_until_exhausted()
    finally:
        source.close()
    assert standalone.link_snapshot() == demuxed


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_monitor_in_process_and_sharded_agree(capture, tmp_path, how):
    names, clean = capture
    records, index = corrupt(clean, how)
    name = link_name(CapturedPacket.decode(0, clean[index].data), names)
    merged = write_merged(tmp_path, names, records)
    single = io.StringIO()
    assert main(["monitor", str(merged), "--demux", "--once",
                 "--json"], out=single) == 0
    sharded = io.StringIO()
    assert main(["monitor", str(merged), "--demux", "--once",
                 "--json", "--workers", "2"], out=sharded) == 0
    assert sharded.getvalue() == single.getvalue()
    document = json.loads(single.getvalue())
    assert document["unrouted"] == 0
    assert document["stages"]["frame"]["errors"] == 1
    assert document["links"][name]["stages"]["frame"]["errors"] == 1
    assert document["packets"] == len(records) - 1


def test_demux_decodes_each_accepted_frame_once(capture, monkeypatch):
    """Foreign frames are never decoded; routed ones exactly once,
    in the demux, and the pipelines do not decode them again."""
    names, records = capture
    calls = []
    decode = CapturedPacket.decode

    def counting(time_us, frame_bytes, verify=True):
        calls.append(time_us)
        return decode(time_us, frame_bytes, verify)

    monkeypatch.setattr(CapturedPacket, "decode", counting)
    factory = MonitorPipelineFactory(names=names)
    demux = LinkDemux(ListSource(records), names=names,
                      accept=ShardAccept(0, 2))
    fleet = FleetSupervisor(demux=demux, pipeline_factory=factory)
    fleet.run_until_exhausted()
    assert demux.routed and demux.foreign
    assert len(calls) == demux.routed
    snapshot = fleet.snapshot()
    assert snapshot.stages["frame"].received == demux.routed
    assert snapshot.stages["frame"].emitted == demux.routed
