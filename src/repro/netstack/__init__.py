"""Minimal from-scratch network stack.

Ethernet II, IPv4 and TCP codecs, libpcap file I/O, TCP stream
reassembly and TCP connection tracking — everything needed to write the
simulator's output as real pcap bytes and to read it back for analysis.
"""

from .addresses import IPv4Address, MacAddress, ipv4, mac
from .checksum import internet_checksum, verify_checksum
from .ethernet import ETHERTYPE_IPV4, EthernetError, EthernetFrame
from .filter import FilterError, compile_filter, filter_packets
from .flows import DirectionStats, FlowKind, FlowRecord, FlowTable
from .ip import PROTO_TCP, IPv4Error, IPv4Packet
from .packet import CapturedPacket, Endpoint, FlowKey, decode_records
from .pcap import (LINKTYPE_ETHERNET, PcapError, PcapReader, PcapRecord,
                   PcapWriter, read_pcap, write_pcap)
from .pcapng import (PcapngError, PcapngReader, PcapngWriter,
                     read_pcapng, sniff_format, write_pcapng)
from .reassembly import ReassemblyStats, StreamReassembler, seq_after
from .tcp import (ACK, FIN_ACK, PSH_ACK, RST, RST_ACK, SYN, SYN_ACK,
                  TCPError, TCPFlags, TCPOption, TCPSegment,
                  encode_options, parse_options)

__all__ = [
    "ACK", "CapturedPacket", "DirectionStats", "ETHERTYPE_IPV4",
    "Endpoint", "EthernetError", "EthernetFrame", "FIN_ACK", "FlowKey",
    "FlowKind", "FlowRecord", "FlowTable", "IPv4Address", "IPv4Error",
    "IPv4Packet", "LINKTYPE_ETHERNET", "MacAddress", "PROTO_TCP",
    "PSH_ACK", "PcapError", "PcapReader", "PcapRecord", "PcapWriter",
    "PcapngError", "PcapngReader", "PcapngWriter", "read_pcapng",
    "sniff_format", "write_pcapng",
    "RST", "RST_ACK", "ReassemblyStats", "SYN", "SYN_ACK",
    "FilterError", "compile_filter", "filter_packets",
    "StreamReassembler", "TCPError", "TCPFlags", "TCPOption",
    "TCPSegment", "encode_options", "parse_options",
    "decode_records", "internet_checksum", "ipv4", "mac", "read_pcap",
    "seq_after", "verify_checksum", "write_pcap",
]
