"""RFC 1071 Internet checksum (used by IPv4 headers and TCP)."""

from __future__ import annotations


def internet_checksum(data: bytes | memoryview) -> int:
    """Compute the 16-bit one's-complement checksum of ``data``.

    Odd-length input is zero-padded on the right, per RFC 1071.

    The one's-complement sum is taken in closed form: read as one
    big-endian integer, ``data`` is the sum of its 16-bit words times
    powers of 2**16, and 2**16 is 1 modulo 0xFFFF, so the integer
    modulo 0xFFFF is the end-around-carry sum — except that the
    folded sum of non-zero input is 0xFFFF, never 0.
    """
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8
    folded = total % 0xFFFF
    if not folded and total:
        folded = 0xFFFF
    return ~folded & 0xFFFF


def verify_checksum(data: bytes | memoryview) -> bool:
    """True when ``data`` (checksum field included) sums to zero."""
    return internet_checksum(data) == 0
