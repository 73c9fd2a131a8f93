"""The benchmark's input: one seeded Y1 capture as bytes on disk.

:func:`prepare` generates the capture through the program's own
content-addressed cache (:func:`repro.perf.cached_generate`), writes
it once as a merged pcapng plus a names JSON under
``.ledgerbench-cache/`` (keyed by seed, scale and the generator's
code digest), and computes everything the checks compare against:
the batch :func:`~repro.analysis.extract_apdus` reference and the
LEARN->DETECT boundary. None of this runs inside a timer.

A *fault* rewrites the file the program reads, and nothing else: the
references stay those of the clean capture, so every workload must
then report failed checks.
"""

from __future__ import annotations

import inspect
import io
import json
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".ledgerbench-cache"
YEAR = 1
DEFAULT_SCALE = 0.01
FAULTS = ("drop-record", "corrupt-length")
#: A block length no real capture block has: the reader waits for
#: ~2 GB that never arrive.
BOGUS_LENGTH = 0x7FFFFFFC


def import_repro() -> None:
    """Make the checkout's ``src/`` importable (and fail loudly)."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"no program source under {source}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


@dataclass
class BenchInput:
    seed: int
    scale: float
    capture: Path
    names: Path
    #: Pcapng section + interface header, then one block per record.
    header: bytes
    blocks: list[bytes]
    #: Capture time of each block in ``blocks``.
    block_times: list[int]
    #: Capture time of every clean record, in file order.
    times: list[int]
    #: The record whose arrival flips the detector, and the switch
    #: time as given to ``--detect-after`` (seconds, text).
    boundary_index: int
    detect_after: str
    ref_events: int
    ref_failures: int
    ref_i_events: int
    fault: str | None

    @property
    def records(self) -> int:
        """Records of the clean capture (what the checks expect)."""
        return len(self.times)


def detect_after_us(text: str) -> int:
    """``--detect-after`` seconds -> ticks, exactly as the CLI does."""
    return int(float(text) * 1_000_000)


def split_blocks(data: bytes) -> tuple[bytes, list[bytes]]:
    """Split a little-endian single-section pcapng into its section
    header (SHB + IDB) and one byte string per packet block."""
    offset = 0
    blocks = []
    while offset < len(data):
        length = struct.unpack_from("<I", data, offset + 4)[0]
        blocks.append(data[offset:offset + length])
        offset += length
    return b"".join(blocks[:2]), blocks[2:]


def apply_fault(blocks: list[bytes], times: list[int],
                fault: str | None) -> tuple[list[bytes], list[int]]:
    """The packet blocks (and their times) the program reads under
    ``fault``; the fault sits three quarters into the capture, after
    the DETECT switch."""
    faulted, faulted_times = list(blocks), list(times)
    if fault is None:
        return faulted, faulted_times
    index = (3 * len(blocks)) // 4
    if fault == "drop-record":
        del faulted[index]
        del faulted_times[index]
    elif fault == "corrupt-length":
        block = faulted[index]
        faulted[index] = (block[:4] + struct.pack("<I", BOGUS_LENGTH)
                          + block[8:])
    else:
        raise ValueError(f"unknown fault {fault!r}")
    return faulted, faulted_times


def batch_ends(path: Path) -> list[int]:
    """Record counts at the end of each closed-drain read batch, at
    the batch size the program's fleet reads with by default."""
    from repro.stream import FleetSupervisor, PcapngTailSource
    batch = inspect.signature(FleetSupervisor).parameters[
        "demux_batch"].default
    source = PcapngTailSource(str(path))
    ends, total = [], 0
    try:
        while True:
            got = len(source.poll(batch))
            if not got:
                break
            total += got
            ends.append(total)
    finally:
        source.close()
    return ends


def choose_boundary(times: list[int], ends: list[int]
                    ) -> tuple[int, str]:
    """A LEARN->DETECT switch that every feeding shape makes alike.

    The monitor flips after the step that first reaches the switch
    time, so the flip is batch-invariant only if the first record at
    or past it closes a read batch. Pick the batch end nearest the
    middle whose last record is strictly later than every record
    before it, so a live feed that pauses after that record flips at
    the same place as a closed drain.
    """
    middle = len(times) // 2
    for end in sorted(ends[:-1], key=lambda end: abs(end - middle)):
        index = end - 1
        if index < 1:
            continue
        text = f"{times[index] / 1_000_000:.6f}"
        switch = detect_after_us(text)
        if max(times[:index]) < switch <= times[index]:
            return index, text
    raise RuntimeError("no batch boundary usable as the detect switch")


def _write_once(path: Path, data: bytes) -> None:
    if path.exists() and path.read_bytes() == data:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def prepare(seed: int, scale: float = DEFAULT_SCALE,
            fault: str | None = None) -> BenchInput:
    import_repro()
    os.environ["REPRO_CACHE_DIR"] = str(CACHE / "repro")
    from repro.analysis import extract_apdus
    from repro.datasets import CaptureConfig
    from repro.netstack.pcapng import PcapngWriter
    from repro.perf import cached_generate, code_digest

    capture = cached_generate(YEAR, CaptureConfig(seed=seed,
                                                  time_scale=scale))
    folder = CACHE / f"y{YEAR}-seed{seed}-scale{scale}-" \
        f"{code_digest()[:16]}"
    buffer = io.BytesIO()
    writer = PcapngWriter(buffer)
    for packet in capture.packets:
        writer.write(packet.time_us, packet.encode())
    header, clean = split_blocks(buffer.getvalue())
    clean_path = folder / "capture.pcapng"
    _write_once(clean_path, header + b"".join(clean))
    names = {str(address): name
             for address, name in capture.host_names().items()}
    names_path = folder / "capture.names.json"
    _write_once(names_path, json.dumps(names, indent=2,
                                       sort_keys=True).encode())
    times = [packet.time_us for packet in capture.packets]
    boundary, detect_after = choose_boundary(times,
                                             batch_ends(clean_path))
    blocks, block_times = apply_fault(clean, times, fault)
    path = clean_path
    if fault is not None:
        path = folder / f"capture-{fault}.pcapng"
        _write_once(path, header + b"".join(blocks))
    extraction = extract_apdus(capture)
    return BenchInput(
        seed=seed, scale=scale, capture=path, names=names_path,
        header=header, blocks=blocks, block_times=block_times,
        times=times,
        boundary_index=boundary, detect_after=detect_after,
        ref_events=len(extraction.events),
        ref_failures=len(extraction.failures),
        ref_i_events=len(extraction.i_events()), fault=fault)
