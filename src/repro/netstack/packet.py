"""Layered packet model: what a capture tap sees.

A :class:`CapturedPacket` is one timestamped Ethernet frame with its
decoded IPv4 and TCP layers, exposing the fields the analysis pipeline
needs (4-tuple, flags, payload) without re-parsing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .addresses import IPv4Address, MacAddress
from .ethernet import ETHERTYPE_IPV4, EthernetError, EthernetFrame
from .ip import PROTO_TCP, IPv4Error, IPv4Packet
from .pcap import PcapRecord
from .tcp import TCPError, TCPFlags, TCPSegment, parse_options

#: One unpack per layer: MAC pair + ethertype; the IPv4 header with
#: both addresses as one 8-octet key; the fixed TCP header.
_ETHERNET = struct.Struct("!12sH")  # staticcheck: width=14
_IPV4 = struct.Struct("!BBHHHBBH8s")  # staticcheck: width=20
_TCP = struct.Struct("!HHIIBBHHH")  # staticcheck: width=20
_ETH_SIZE = _ETHERNET.size
_IP_SIZE = _IPV4.size
_TCP_SIZE = _TCP.size

#: The routing peek: ethertype, IP version/IHL, IP protocol and the
#: address pair, at their fixed offsets in a frame carrying IPv4.
_PEEK = struct.Struct("!12xHB8xB2x8s")  # staticcheck: width=34
_PORTS = struct.Struct("!HH")  # staticcheck: width=4

#: Every TCPFlags value, indexed by the six flag bits.
_FLAGS = tuple(TCPFlags.decode(bits) for bits in range(64))

#: Interned (first, second) address values per raw address pair. A
#: capture has few distinct pairs; the bound only guards against
#: input that makes up a new pair per frame.
_MAC_PAIRS: dict[bytes, tuple[MacAddress, MacAddress]] = {}
_IP_PAIRS: dict[bytes, tuple[IPv4Address, IPv4Address]] = {}
_INTERN_LIMIT = 4096

_new = object.__new__


def _intern(table: dict, key: bytes, kind) -> tuple:
    """Intern the two halves of ``key`` as ``kind`` values."""
    if len(table) >= _INTERN_LIMIT:
        table.clear()
    width = len(key) // 2
    pair = (kind(int.from_bytes(key[:width], "big")),
            kind(int.from_bytes(key[width:], "big")))
    table[key] = pair
    return pair


@dataclass(frozen=True, order=True)
class Endpoint:
    """An (address, port) transport endpoint."""

    address: IPv4Address
    port: int

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 0xFFFF:
            raise ValueError("port must fit in 16 bits")

    def __str__(self) -> str:
        return f"{self.address}:{self.port}"


@dataclass(frozen=True, order=True)
class FlowKey:
    """The directional 4-tuple <srcIP, srcPort, dstIP, dstPort>."""

    src: Endpoint
    dst: Endpoint

    @property
    def reversed(self) -> "FlowKey":
        return FlowKey(src=self.dst, dst=self.src)

    @property
    def canonical(self) -> "FlowKey":
        """Direction-independent form (smaller endpoint first)."""
        return self if self.src <= self.dst else self.reversed

    def __str__(self) -> str:
        return f"{self.src} -> {self.dst}"


@dataclass(frozen=True)
class CapturedPacket:
    """One packet as seen by the network tap (Fig. 5 of the paper).

    ``time_us`` is the canonical capture time in integer microseconds
    (the simulation tick).
    """

    time_us: int
    ethernet: EthernetFrame
    ip: IPv4Packet
    tcp: TCPSegment

    def __post_init__(self) -> None:
        if not isinstance(self.time_us, int) \
                or isinstance(self.time_us, bool):
            raise TypeError(
                f"time_us must be integer microseconds, got "
                f"{self.time_us!r}")

    # ``cached_property`` writes to the instance ``__dict__`` directly,
    # which a frozen (non-slots) dataclass permits: the derived views
    # below are pure functions of the frozen fields, so caching them is
    # invisible except to the hot-loop profiles that hit them per
    # packet (flow tracking asks for flow_key and wire_length on every
    # add).
    @cached_property
    def flow_key(self) -> FlowKey:
        return FlowKey(src=Endpoint(self.ip.src, self.tcp.src_port),
                       dst=Endpoint(self.ip.dst, self.tcp.dst_port))

    @property
    def payload(self) -> bytes:
        return self.tcp.payload

    @property
    def flags(self) -> TCPFlags:
        return self.tcp.flags

    @cached_property
    def wire_length(self) -> int:
        """Total on-wire frame length in octets."""
        return len(self.ethernet.encode())

    def encode(self) -> bytes:
        """Serialize the full Ethernet frame."""
        return self.ethernet.encode()

    @classmethod
    def build(cls, time_us: int, src_mac: MacAddress,
              dst_mac: MacAddress, src_ip: IPv4Address,
              dst_ip: IPv4Address, segment: TCPSegment,
              ip_id: int = 0) -> "CapturedPacket":
        """Assemble a packet from its TCP segment upward."""
        ip_packet = IPv4Packet(src=src_ip, dst=dst_ip,
                               payload=segment.encode(src_ip, dst_ip),
                               identification=ip_id)
        frame = EthernetFrame(dst=dst_mac, src=src_mac,
                              ethertype=ETHERTYPE_IPV4,
                              payload=ip_packet.encode())
        return cls(time_us=time_us, ethernet=frame, ip=ip_packet,
                   tcp=segment)

    @classmethod
    def decode(cls, time_us: int, frame_bytes: bytes,
               verify: bool = True) -> "CapturedPacket | None":
        """Decode a raw Ethernet frame; None for non-TCP/IPv4 traffic.

        The paper's captures contained ICCP and C37.118 alongside IEC
        104; returning ``None`` for anything that is not TCP-over-IPv4
        lets callers filter exactly as the paper did.

        The result equals the layered :meth:`EthernetFrame.decode` ->
        :meth:`IPv4Packet.decode` -> :meth:`TCPSegment.decode` chain
        and malformed input raises the same exception classes, but
        each header is read with one ``struct`` unpack straight from
        ``frame_bytes``, and the frozen layer objects are built
        without re-running range checks the unpack already
        guarantees. Address, MAC and flag values are interned.
        """
        data = frame_bytes if type(frame_bytes) is bytes \
            else bytes(frame_bytes)
        size = len(data)
        if size < _ETH_SIZE:
            raise EthernetError(
                f"frame too short for Ethernet header: {size} octets")
        macs, ethertype = _ETHERNET.unpack_from(data)
        if ethertype != ETHERTYPE_IPV4:
            return None
        ip_size = size - _ETH_SIZE
        if ip_size < _IP_SIZE:
            raise IPv4Error(f"packet too short: {ip_size} octets")
        (version_ihl, tos, total_length, identification, flags_frag,
         ttl, protocol, _checksum, addresses) = \
            _IPV4.unpack_from(data, _ETH_SIZE)
        ihl = (version_ihl & 0x0F) * 4
        if version_ihl >> 4 != 4:
            raise IPv4Error(f"not IPv4 (version {version_ihl >> 4})")
        if ihl < _IP_SIZE or ip_size < ihl:
            raise IPv4Error(f"invalid header length {ihl}")
        if total_length < ihl or total_length > ip_size:
            raise IPv4Error(
                f"total length {total_length} inconsistent with capture "
                f"({ip_size} octets)")
        if flags_frag & 0x3FFF and not flags_frag & 0x4000:
            raise IPv4Error("fragmented IPv4 packets are not supported")
        start = _ETH_SIZE + ihl
        # RFC 1071 in closed form (see internet_checksum): a valid
        # header sums to 0xFFFF, and a version-4 header is never zero.
        if verify and int.from_bytes(data[_ETH_SIZE:start], "big") \
                % 0xFFFF:
            raise IPv4Error("IPv4 header checksum mismatch")
        if not ttl:
            raise ValueError("ttl must be in 1..255")
        if protocol != PROTO_TCP:
            return None
        end = _ETH_SIZE + total_length
        segment_size = total_length - ihl
        if segment_size < _TCP_SIZE:
            raise TCPError(f"segment too short: {segment_size} octets")
        (src_port, dst_port, seq, ack, offset_byte, flag_bits, window,
         _checksum, _urgent) = _TCP.unpack_from(data, start)
        data_offset = (offset_byte >> 4) * 4
        if data_offset < _TCP_SIZE or segment_size < data_offset:
            raise TCPError(f"invalid data offset {data_offset}")
        segment = data[start:end]
        if verify:
            # RFC 1071 over pseudo-header + segment without building
            # the pseudo-header: its words are the two addresses, the
            # protocol and the segment length, and the closed-form sum
            # (see internet_checksum) is additive.
            total = (int.from_bytes(addresses, "big") + PROTO_TCP
                     + segment_size + (int.from_bytes(segment, "big")
                                       << 8 * (segment_size & 1)))
            if total % 0xFFFF:
                raise TCPError("TCP checksum mismatch")
        options = (parse_options(segment[_TCP_SIZE:data_offset])
                   if data_offset > _TCP_SIZE else ())
        mac_pair = _MAC_PAIRS.get(macs)
        if mac_pair is None:
            mac_pair = _intern(_MAC_PAIRS, macs, MacAddress)
        ip_pair = _IP_PAIRS.get(addresses)
        if ip_pair is None:
            ip_pair = _intern(_IP_PAIRS, addresses, IPv4Address)
        # Field by field, in declaration order: the instance dicts
        # then share their keys with every other instance of the class
        # (a bulk ``update`` would give each its own key table).
        frame = _new(EthernetFrame)
        fields = frame.__dict__
        fields["dst"], fields["src"] = mac_pair
        fields["ethertype"] = ethertype
        fields["payload"] = data[_ETH_SIZE:]
        ip_packet = _new(IPv4Packet)
        fields = ip_packet.__dict__
        fields["src"], fields["dst"] = ip_pair
        fields["payload"] = segment
        fields["protocol"] = protocol
        fields["ttl"] = ttl
        fields["identification"] = identification
        fields["dont_fragment"] = bool(flags_frag & 0x4000)
        fields["tos"] = tos
        tcp = _new(TCPSegment)
        fields = tcp.__dict__
        fields["src_port"] = src_port
        fields["dst_port"] = dst_port
        fields["seq"] = seq
        fields["ack"] = ack
        fields["flags"] = _FLAGS[flag_bits & 0x3F]
        fields["window"] = window
        fields["payload"] = segment[data_offset:]
        fields["options"] = options
        # Checked last, where the constructor would check it: frames
        # that return None or fail above never look at ``time_us``.
        if not isinstance(time_us, int) or isinstance(time_us, bool):
            raise TypeError(
                f"time_us must be integer microseconds, got {time_us!r}")
        packet = _new(cls)
        fields = packet.__dict__
        fields["time_us"] = time_us
        fields["ethernet"] = frame
        fields["ip"] = ip_packet
        fields["tcp"] = tcp
        # Seed the cached wire length: Ethernet II re-encodes to the
        # decoded bytes verbatim (14-octet header + payload), so the
        # frame we just consumed *is* the on-wire form.
        fields["wire_length"] = size
        return packet


def peek_addresses(frame_bytes: bytes) -> bytes | None:
    """The raw (src, dst) IPv4 address pair of a TCP/IPv4 frame.

    A fixed-offset read of the ethertype, IP version, IP protocol and
    addresses, with no decode or checksum: None exactly when the frame
    is not TCP over IPv4 (including frames too short to say), so it
    splits frames the way :meth:`CapturedPacket.decode`'s ``None``
    does. A frame it accepts may still fail to decode.
    """
    if len(frame_bytes) < _PEEK.size:
        return None
    ethertype, version_ihl, protocol, addresses = \
        _PEEK.unpack_from(frame_bytes)
    if ethertype != ETHERTYPE_IPV4 or version_ihl >> 4 != 4 \
            or protocol != PROTO_TCP:
        return None
    return addresses


def peek_ports(frame_bytes: bytes) -> tuple[int, int] | None:
    """The TCP (src, dst) ports of a frame :func:`peek_addresses`
    accepts, when its IP header length is sane and the ports were
    captured."""
    ihl = (frame_bytes[_ETH_SIZE] & 0x0F) * 4
    offset = _ETH_SIZE + ihl
    if ihl < _IP_SIZE or len(frame_bytes) < offset + _PORTS.size:
        return None
    return _PORTS.unpack_from(frame_bytes, offset)


def decode_records(records: Iterable[PcapRecord],
                   on_error: Callable[[PcapRecord, ValueError], None]
                   | None = None) -> Iterator[CapturedPacket]:
    """Decode capture records in order, skipping non-TCP/IPv4 frames.

    A frame that fails to decode (bad checksum, truncated header)
    raises, unless ``on_error`` is given: it is then called with the
    record and the error, and the frame is skipped.
    """
    for record in records:
        try:
            packet = CapturedPacket.decode(record.time_us, record.data)
        except ValueError as error:
            if on_error is None:
                raise
            on_error(record, error)
            continue
        if packet is not None:
            yield packet
