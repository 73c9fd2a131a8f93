"""Property tests for the decode fast paths.

``internet_checksum`` computes the RFC 1071 sum in closed form and
``CapturedPacket.decode`` reads each header with one unpack; both must
agree exactly with the straightforward forms they replace: the 16-bit
word loop, and the layered ``EthernetFrame`` -> ``IPv4Packet`` ->
``TCPSegment`` decode (same packet, or the same exception class).
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.netstack.addresses import IPv4Address, MacAddress
from repro.netstack.checksum import internet_checksum, verify_checksum
from repro.netstack.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.netstack.ip import PROTO_TCP, IPv4Packet
from repro.netstack.packet import (CapturedPacket, decode_records,
                                   peek_addresses, peek_ports)
from repro.netstack.pcap import PcapRecord
from repro.netstack.tcp import TCPFlags, TCPOption, TCPSegment


def reference_checksum(data: bytes) -> int:
    """RFC 1071, word by word with end-around carry."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for index in range(0, len(data), 2):
        total += (data[index] << 8) | data[index + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def layered_decode(time_us: int, data: bytes, verify: bool):
    frame = EthernetFrame.decode(data)
    if frame.ethertype != ETHERTYPE_IPV4:
        return None
    ip_packet = IPv4Packet.decode(frame.payload, verify=verify)
    if ip_packet.protocol != PROTO_TCP:
        return None
    segment = TCPSegment.decode(ip_packet.payload, ip_packet.src,
                                ip_packet.dst, verify=verify)
    return CapturedPacket(time_us=time_us, ethernet=frame, ip=ip_packet,
                          tcp=segment)


def outcome(decode, *args):
    """("ok", result) or ("raise", exception class)."""
    try:
        return "ok", decode(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return "raise", type(exc)


class TestChecksum:
    @given(st.binary(max_size=300))
    @example(b"")
    @example(b"\x00")
    @example(b"\x00" * 7)
    @example(b"\x00" * 40)
    @example(b"\xff")
    @example(b"\xff" * 7)
    @example(b"\xff" * 40)
    @example(b"\xff\xff\x00\x00")
    @example(b"\x00\x01\xf2\x03\xf4\xf5\xf6\xf7")
    def test_matches_rfc1071_loop(self, data):
        assert internet_checksum(data) == reference_checksum(data)
        assert internet_checksum(memoryview(data)) \
            == reference_checksum(data)

    @given(st.binary(max_size=300))
    @example(b"\x00" * 8)
    @example(b"\xff" * 8)
    def test_verify_is_checksum_zero(self, data):
        assert verify_checksum(data) == (reference_checksum(data) == 0)


_OPTIONS = st.lists(st.sampled_from([
    TCPOption(kind=TCPOption.NOP),
    TCPOption(kind=TCPOption.MSS, data=b"\x05\xb4"),
    TCPOption(kind=TCPOption.WINDOW_SCALE, data=b"\x07"),
    TCPOption(kind=TCPOption.SACK_PERMITTED),
    TCPOption(kind=TCPOption.TIMESTAMPS, data=bytes(range(8))),
]), max_size=4)


@st.composite
def frames(draw) -> bytes:
    segment = TCPSegment(
        src_port=draw(st.integers(0, 0xFFFF)),
        dst_port=draw(st.integers(0, 0xFFFF)),
        seq=draw(st.integers(0, (1 << 32) - 1)),
        ack=draw(st.integers(0, (1 << 32) - 1)),
        flags=TCPFlags.decode(draw(st.integers(0, 63))),
        window=draw(st.integers(0, 0xFFFF)),
        payload=draw(st.binary(max_size=64)),
        options=tuple(draw(_OPTIONS)))
    packet = CapturedPacket.build(
        time_us=0,
        src_mac=MacAddress(draw(st.integers(0, (1 << 48) - 1))),
        dst_mac=MacAddress(draw(st.integers(0, (1 << 48) - 1))),
        src_ip=IPv4Address(draw(st.integers(0, (1 << 32) - 1))),
        dst_ip=IPv4Address(draw(st.integers(0, (1 << 32) - 1))),
        segment=segment, ip_id=draw(st.integers(0, 0xFFFF)))
    return packet.encode()


@st.composite
def damaged_frames(draw) -> bytes:
    """Built frames, cut short, padded and/or with bytes flipped."""
    data = bytearray(draw(frames()))
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(0, len(data) - 1))
        data[index] ^= draw(st.integers(1, 255))
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    if draw(st.booleans()):
        data += draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


class TestDecode:
    @settings(max_examples=150)
    @given(frames(), st.integers(0, 1 << 40))
    def test_built_frames_equal_layered(self, data, time_us):
        packet = CapturedPacket.decode(time_us, data)
        assert packet == layered_decode(time_us, data, True)
        assert packet.wire_length == len(data)
        assert packet.encode() == data

    @settings(max_examples=400)
    @given(damaged_frames(), st.booleans())
    def test_damaged_frames_equal_layered(self, data, verify):
        fast = outcome(CapturedPacket.decode, 7, data, verify)
        assert fast == outcome(layered_decode, 7, data, verify)

    @settings(max_examples=100)
    @given(frames())
    def test_fixed_offset_fields(self, data):
        """Ethertype, IP version and protocol rewritten in place."""
        for offset, value in ((12, 0x86), (14, 0x65), (23, 17),
                              (22, 0)):
            changed = data[:offset] + bytes([value]) + data[offset + 1:]
            for verify in (True, False):
                assert outcome(CapturedPacket.decode, 1, changed,
                               verify) \
                    == outcome(layered_decode, 1, changed, verify)

    @settings(max_examples=300)
    @given(damaged_frames())
    def test_peek_splits_frames_like_decode(self, data):
        """The routing peek says "not TCP/IPv4" exactly when decode
        does, and names the decoded packet's addresses otherwise."""
        addresses = peek_addresses(data)
        kind, result = outcome(CapturedPacket.decode, 0, data, False)
        if kind == "ok" and result is None:
            assert addresses is None
        elif kind == "ok":
            assert addresses == (result.ip.src.to_bytes()
                                 + result.ip.dst.to_bytes())
            assert peek_ports(data) == (result.tcp.src_port,
                                        result.tcp.dst_port)

    def test_non_integer_time_rejected_like_the_constructor(self):
        data = CapturedPacket.build(
            0, MacAddress(1), MacAddress(2), IPv4Address(1),
            IPv4Address(2), TCPSegment(src_port=1, dst_port=2,
                                       seq=0)).encode()
        assert outcome(CapturedPacket.decode, 1.5, data, True) \
            == outcome(layered_decode, 1.5, data, True)

    def test_decode_records_skips_non_tcp(self):
        tcp = CapturedPacket.build(
            5, MacAddress(1), MacAddress(2), IPv4Address(1),
            IPv4Address(2), TCPSegment(src_port=1, dst_port=2, seq=0))
        records = [PcapRecord(time_us=1, data=b"\x00" * 60),
                   PcapRecord(time_us=5, data=tcp.encode())]
        assert list(decode_records(records)) == [tcp]
