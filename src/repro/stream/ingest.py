"""Packet sources for the streaming pipeline.

Batch analysis consumes a finished capture; the streaming engine pulls
from a :class:`Source` — an object that yields whatever has arrived
*so far* and says whether more may ever come. Three adapters cover the
workloads named in the roadmap:

* :class:`PcapTailSource` — incremental classic-pcap reader that
  tolerates a file still being written (``tail -f`` for captures);
* :class:`CaptureSource` — follows the packet list of a live
  :class:`~repro.simnet.scenario.SyntheticCapture` tap (or any object
  with a ``.packets`` list) as the simulator appends to it;
* :class:`ByteChunk` + :class:`TransportTap` — the socket_transport
  live path, where there is no L2-L4 framing: reliable APDU byte
  chunks enter the pipeline directly at the decode stage.

Sources are pull-based: the pipeline calls :meth:`Source.poll` with a
batch bound, which is what keeps ingest memory bounded no matter how
fast the producer writes.
"""

from __future__ import annotations

import struct
from typing import Iterable, Protocol, runtime_checkable

from ..netstack.addresses import IPv4Address
from ..netstack.packet import CapturedPacket
from ..netstack.pcap import (MAGIC_NSEC, MAGIC_USEC, PcapError,
                             PcapRecord, scan_complete_records)
from ..netstack.pcapng import (EPB_TYPE, IDB_TYPE, SHB_TYPE, SPB_TYPE,
                               Interface, PcapngError, parse_epb_body,
                               parse_idb_body, parse_spb_body)

#: One classic-pcap global header (see repro.netstack.pcap).
_GLOBAL_HEADER_SIZE = 24
_RECORD_HEADER_SIZE = 16
#: A pcapng block header (type + length) plus, for an SHB, the
#: byte-order magic needed to interpret the length at all.
_BLOCK_PROBE_SIZE = 12
_US_PER_SECOND = 1_000_000
_PCAPNG_BYTE_ORDER_MAGIC = 0x1A2B3C4D

#: Item types a source may yield (the pipeline routes on type).
SourceItem = object


@runtime_checkable
class Source(Protocol):
    """What the pipeline pulls from.

    ``poll`` returns at most ``max_items`` newly available items
    (possibly none); ``exhausted`` is True once no further item can
    ever arrive. A tail-mode source is never exhausted.
    """

    def poll(self, max_items: int) -> list[SourceItem]:
        ...  # pragma: no cover - protocol

    @property
    def exhausted(self) -> bool:
        ...  # pragma: no cover - protocol


class ListSource:
    """Source over an already-materialized item list (tests, replays)."""

    def __init__(self, items: Iterable[SourceItem]):
        self._items = list(items)
        self._cursor = 0

    def poll(self, max_items: int) -> list[SourceItem]:
        batch = self._items[self._cursor:self._cursor + max_items]
        self._cursor += len(batch)
        return batch

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._items)


class CaptureSource:
    """Follow the (possibly still-growing) packet list of a capture tap.

    Works for a finished :class:`SyntheticCapture` and for a live one
    whose simulator is still appending: each ``poll`` picks up where
    the previous one stopped. ``finished`` marks the producer done so
    the pipeline can drain and stop.
    """

    def __init__(self, capture, finished: bool = True):
        self._capture = capture
        self._cursor = 0
        self.finished = finished

    @property
    def _packets(self) -> list[CapturedPacket]:
        return self._capture.packets

    def host_names(self) -> dict[IPv4Address, str]:
        names = getattr(self._capture, "host_names", None)
        return dict(names()) if callable(names) else {}

    def poll(self, max_items: int) -> list[SourceItem]:
        packets = self._packets
        batch = packets[self._cursor:self._cursor + max_items]
        self._cursor += len(batch)
        return list(batch)

    @property
    def exhausted(self) -> bool:
        return self.finished and self._cursor >= len(self._packets)


class PcapTailSource:
    """Incrementally read a classic pcap file that may still grow.

    Unlike :class:`~repro.netstack.pcap.PcapReader`, a short read at
    the tail is not an error: partial header or record bytes stay
    buffered until the writer appends the rest. With ``follow=False``
    the source is exhausted at the first complete read of the file;
    with ``follow=True`` it keeps polling for appended bytes forever
    (the monitor decides when to stop).
    """

    def __init__(self, path, follow: bool = False):
        self._stream = open(path, "rb")
        self.follow = follow
        self._buffer = b""
        #: Consumed-bytes cursor into ``_buffer``: the batch scanner
        #: advances it per record and the buffer is trimmed once per
        #: poll, so a poll costs one slice however many records it
        #: yields (the old path re-sliced the whole remainder per
        #: record — quadratic on large polls).
        self._offset = 0
        self._header_done = False
        self._endian = "<"
        self._nanoseconds = False
        self._record_struct = struct.Struct("<IIII")
        #: Records whose bytes were complete but whose frame bytes
        #: failed to decode are counted by the pipeline, not here.
        self.records_read = 0
        self._eof_seen = False

    def close(self) -> None:
        self._stream.close()

    def _parse_header(self) -> bool:
        if len(self._buffer) - self._offset < _GLOBAL_HEADER_SIZE:
            return False
        start = self._offset
        header = self._buffer[start:start + _GLOBAL_HEADER_SIZE]
        magic = struct.unpack("<I", header[:4])[0]
        if magic in (MAGIC_USEC, MAGIC_NSEC):
            self._endian = "<"
        else:
            magic = struct.unpack(">I", header[:4])[0]
            if magic not in (MAGIC_USEC, MAGIC_NSEC):
                raise PcapError(f"bad pcap magic 0x{magic:08x}")
            self._endian = ">"
        self._nanoseconds = magic == MAGIC_NSEC
        self._record_struct = struct.Struct(self._endian + "IIII")
        self._offset = start + _GLOBAL_HEADER_SIZE
        self._header_done = True
        return True

    def poll(self, max_items: int) -> list[SourceItem]:
        chunk = self._stream.read(max(65536, max_items * 256))
        if chunk:
            if self._offset:
                self._buffer = self._buffer[self._offset:]
                self._offset = 0
            self._buffer += chunk
            self._eof_seen = False
        else:
            self._eof_seen = True
        if not self._header_done and not self._parse_header():
            return []
        records, self._offset = scan_complete_records(
            self._buffer, self._record_struct, self._nanoseconds,
            offset=self._offset, limit=max_items)
        self.records_read += len(records)
        return records

    @property
    def exhausted(self) -> bool:
        if self.follow:
            return False
        return (self._eof_seen and self._header_done
                and len(self._buffer) - self._offset
                < _RECORD_HEADER_SIZE)

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes awaiting record completion."""
        return len(self._buffer) - self._offset


class PcapngTailSource:
    """Incrementally read a pcapng file that may still grow.

    The pcapng sibling of :class:`PcapTailSource`, with the same
    contract: a short read at the tail (half a block header, half a
    block body) stays buffered until the writer appends the rest;
    ``follow=False`` exhausts at the first complete read of the file,
    ``follow=True`` polls forever. Block bodies decode through the
    same :func:`~repro.netstack.pcapng.parse_epb_body` /
    :func:`~repro.netstack.pcapng.parse_idb_body` helpers as the
    batch :class:`~repro.netstack.pcapng.PcapngReader`, so tail and
    batch reads of the same bytes yield identical records. EPB and
    SPB blocks become records; SHB resets the section (endianness and
    interface list); unknown block types are counted in
    ``blocks_skipped``.
    """

    def __init__(self, path, follow: bool = False):
        self._stream = open(path, "rb")
        self.follow = follow
        self._buffer = b""
        #: Consumed-bytes cursor into ``_buffer`` (same single-trim-
        #: per-poll discipline as :class:`PcapTailSource`).
        self._offset = 0
        self._endian = "<"
        self._have_section = False
        self._interfaces: list[Interface] = []
        self.records_read = 0
        self.blocks_skipped = 0
        self._eof_seen = False

    def close(self) -> None:
        self._stream.close()

    def _next_block(self) -> tuple[int, bytes] | None:
        """Pop one complete block off the buffer, or None to wait."""
        buffer = self._buffer
        start = self._offset
        if len(buffer) - start < _BLOCK_PROBE_SIZE:
            return None
        # The SHB type value reads the same under either byte order,
        # so probing with the current endianness is safe even across
        # a section boundary that flips it.
        block_type = struct.unpack_from(self._endian + "I", buffer,
                                        start)[0]
        if block_type == SHB_TYPE:
            # Length interpretation needs the byte-order magic, which
            # sits just after the header.
            if struct.unpack_from("<I", buffer, start + 8)[0] \
                    == _PCAPNG_BYTE_ORDER_MAGIC:
                endian = "<"
            elif struct.unpack_from(">I", buffer, start + 8)[0] \
                    == _PCAPNG_BYTE_ORDER_MAGIC:
                endian = ">"
            else:
                raise PcapngError("bad byte-order magic")
            length = struct.unpack_from(endian + "I", buffer,
                                        start + 4)[0]
            if length < 16 or length % 4:
                raise PcapngError(f"invalid SHB length {length}")
            if len(buffer) - start < length:
                return None
            trailer = struct.unpack_from(endian + "I", buffer,
                                         start + length - 4)[0]
            if trailer != length:
                raise PcapngError("block length trailer mismatch")
            self._endian = endian
            self._have_section = True
            self._interfaces = []  # new section resets interfaces
            self._offset = start + length
            return SHB_TYPE, buffer[start + 8:start + length - 4]
        if not self._have_section:
            raise PcapngError(
                f"not a pcapng stream (first block 0x{block_type:08x})")
        length = struct.unpack_from(self._endian + "I", buffer,
                                    start + 4)[0]
        if length < 12 or length % 4:
            raise PcapngError(f"invalid block length {length}")
        if len(buffer) - start < length:
            return None
        trailer = struct.unpack_from(self._endian + "I", buffer,
                                     start + length - 4)[0]
        if trailer != length:
            raise PcapngError("block length trailer mismatch")
        self._offset = start + length
        return block_type, buffer[start + 8:start + length - 4]

    def poll(self, max_items: int) -> list[SourceItem]:
        chunk = self._stream.read(max(65536, max_items * 256))
        if chunk:
            if self._offset:
                self._buffer = self._buffer[self._offset:]
                self._offset = 0
            self._buffer += chunk
            self._eof_seen = False
        else:
            self._eof_seen = True
        records: list[SourceItem] = []
        while len(records) < max_items:
            block = self._next_block()
            if block is None:
                break
            block_type, body = block
            if block_type == IDB_TYPE:
                self._interfaces.append(
                    parse_idb_body(body, self._endian))
            elif block_type == EPB_TYPE:
                records.append(parse_epb_body(body, self._endian,
                                              self._interfaces))
                self.records_read += 1
            elif block_type == SPB_TYPE:
                records.append(parse_spb_body(body, self._endian))
                self.records_read += 1
            elif block_type != SHB_TYPE:
                # NRB, ISB, custom blocks: skipped, like the reader.
                self.blocks_skipped += 1
        return records

    @property
    def exhausted(self) -> bool:
        if self.follow:
            return False
        return (self._eof_seen and self._have_section
                and len(self._buffer) - self._offset
                < _BLOCK_PROBE_SIZE)

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes awaiting block completion."""
        return len(self._buffer) - self._offset


class ByteChunk:
    """Reliable APDU bytes from the live socket path.

    There is no packet capture between two real endpoints — the kernel
    already reassembled TCP — so the chunk enters the pipeline at the
    decode stage. ``time_us`` is a caller-supplied monotone tick (the
    tap keeps its own deterministic counter by default).
    """

    __slots__ = ("time_us", "src", "dst", "data")

    def __init__(self, time_us: int, src: str, dst: str, data: bytes):
        self.time_us = time_us
        self.src = src
        self.dst = dst
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ByteChunk(time_us={self.time_us}, src={self.src!r}, "
                f"dst={self.dst!r}, {len(self.data)} bytes)")


class FramedPacket:
    """A capture record its :class:`~repro.stream.fleet.LinkDemux`
    already decoded.

    The demux decodes each frame it accepts once and queues this
    instead of the raw record, so the link's pipeline need not decode
    it again. The pipeline still counts it through its ``frame``
    stage, exactly as it would have framed the raw record itself.
    """

    __slots__ = ("time_us", "packet")

    def __init__(self, packet: CapturedPacket):
        self.time_us = packet.time_us
        self.packet = packet

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FramedPacket({self.packet!r})"


class TransportTap:
    """Buffer + Source for live endpoint byte streams.

    :meth:`tap` wraps a :class:`~repro.iec104.socket_transport.
    SocketTransport`'s receiver callback so every chunk the endpoint
    consumes is also queued here, labelled with a (src, dst) direction.
    Chunks are stamped with a deterministic monotone microsecond
    counter unless the caller supplies real ticks via :meth:`push`.
    """

    def __init__(self, tick_step_us: int = 1000):
        self._queue: list[ByteChunk] = []
        self._now_us = 0
        self._tick_step_us = tick_step_us
        self.finished = False

    def push(self, src: str, dst: str, data: bytes,
             time_us: int | None = None) -> None:
        if time_us is None:
            self._now_us += self._tick_step_us
            time_us = self._now_us
        else:
            self._now_us = max(self._now_us, time_us)
        self._queue.append(ByteChunk(time_us=time_us, src=src,
                                     dst=dst, data=data))

    def tap(self, transport, src: str, dst: str) -> None:
        """Interpose on ``transport.receiver`` (keeps the original)."""
        original = transport.receiver

        def receive(data: bytes) -> None:
            self.push(src, dst, data)
            if original is not None:
                original(data)

        transport.receiver = receive

    def poll(self, max_items: int) -> list[SourceItem]:
        batch = self._queue[:max_items]
        del self._queue[:len(batch)]
        return batch

    @property
    def exhausted(self) -> bool:
        return self.finished and not self._queue


class MergedSource:
    """Time-ordered fan-in over several sources.

    Delivery is deterministic: the buffered heads are merged by
    ``time_us`` (ties broken by source index). A head is only released
    while every non-exhausted source has at least one buffered item —
    otherwise a later poll of the starved source could yield an earlier
    timestamp and break ordering.
    """

    def __init__(self, sources: list):
        self._sources = list(sources)
        self._heads: list[list[SourceItem]] = [[] for _ in self._sources]

    @staticmethod
    def _time_of(item: SourceItem) -> int:
        return getattr(item, "time_us", 0)

    def poll(self, max_items: int) -> list[SourceItem]:
        for index, source in enumerate(self._sources):
            if not self._heads[index] and not source.exhausted:
                self._heads[index] = list(source.poll(max_items))
        merged: list[SourceItem] = []
        while len(merged) < max_items:
            candidates = [(self._time_of(head[0]), index)
                          for index, head in enumerate(self._heads)
                          if head]
            if not candidates:
                break
            starved = any(not head and not source.exhausted
                          for head, source in zip(self._heads,
                                                  self._sources))
            if starved:
                break
            _, index = min(candidates)
            merged.append(self._heads[index].pop(0))
        return merged

    @property
    def exhausted(self) -> bool:
        return (all(source.exhausted for source in self._sources)
                and not any(self._heads))
