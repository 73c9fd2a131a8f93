"""A fixed reference kernel that measures how fast the host runs now.

The measuring host is a 2-vCPU slice of a shared machine. Its speed
for pure-Python work drifts by up to a factor of two, in regimes that
last from seconds to minutes, and process CPU time drifts with wall
time, so neither clock removes it. A closed drain is therefore timed
between two runs of :func:`kernel`, a fixed piece of interpreter work
of the same kind as the program's (``struct`` unpacking of a byte
buffer, small slotted objects, tuple-keyed dictionaries, list appends,
string formatting, one ``json.dumps``). The drain's time is scaled
to the host speed at which the kernel takes :data:`REFERENCE_S`::

    scaled_s = drain_s * REFERENCE_S / kernel_s

where ``kernel_s`` is the mean of the kernel runs just before and just
after the drain. A slow regime stretches both, so their ratio holds.

The kernel never changes with the program: it imports nothing from
``repro``, so a commit that speeds the program up moves only the
drain's side of the ratio.
"""

from __future__ import annotations

import json
import struct
import time

#: Kernel time, in seconds, that defines the reference host speed.
#: Near the median the kernel took on the host described in NOTES.md.
REFERENCE_S = 0.150
#: Passes over the buffer in one kernel run (about 0.15 s).
ROUNDS = 30
_RECORD = struct.Struct("<IHHIB")
_STRIDE = 64
_BUFFER = bytes((i * 37 + 11) & 0xFF for i in range(_STRIDE * 4096))


class _Row:
    __slots__ = ("first", "second", "flags", "key")

    def __init__(self, first: int, second: int, flags: int,
                 key: tuple[int, int]) -> None:
        self.first = first
        self.second = second
        self.flags = flags
        self.key = key


def kernel(rounds: int = ROUNDS) -> int:
    """Run the fixed reference work; returns a checksum."""
    unpack = _RECORD.unpack_from
    checksum = 0
    for _round in range(rounds):
        table: dict[tuple[int, int], list[_Row]] = {}
        labels = []
        for offset in range(0, len(_BUFFER) - _RECORD.size, _STRIDE):
            first, low, high, second, flags = unpack(_BUFFER, offset)
            key = (low & 0xFF, high & 0x3F)
            row = _Row(first, second, flags, key)
            bucket = table.get(key)
            if bucket is None:
                bucket = table[key] = []
            bucket.append(row)
            if flags & 7 == 0:
                labels.append("%d:%d" % (row.first, row.second))
        summary = {f"{a}.{b}": len(rows) for (a, b), rows in table.items()}
        checksum += len(json.dumps(summary, sort_keys=True)) + len(labels)
    return checksum


def time_kernel() -> float:
    """Seconds one :func:`kernel` run takes now."""
    begin = time.perf_counter()
    kernel()
    return time.perf_counter() - begin


def scaled_seconds(seconds: float, kernel_s: float) -> float:
    """``seconds`` as they would read at the reference host speed."""
    return seconds * REFERENCE_S / kernel_s
