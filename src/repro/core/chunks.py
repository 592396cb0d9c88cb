"""Independent 4-MiB chunk compression (§1, §3.4).

The Dropbox back-end stores files as chunks of at most 4 MiB, retrieved
independently by clients — so Lepton "must be able to decompress any
substring of a JPEG file, without access to other substrings".  Compression
sees the whole file (it is done after assembly, off the latency path) and
captures a Huffman handover word wherever a chunk boundary falls, even
mid-symbol; each chunk then becomes a self-contained Lepton container that
re-encodes its MCU span, drops the leading bytes belonging to the previous
chunk, and trims to its exact byte window.

:func:`encode_windows` is the one encode pipeline: the store's chunked put
runs it over 4-MiB windows and :func:`~repro.core.lepton.compress` over one
window spanning the whole file, both through the same §6.2 classification
step, :func:`~repro.core.lepton.convert`.
"""

import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.errors import ExitCode, MemoryLimitExceeded
from repro.core.format import LeptonFile, write_container
from repro.core.lepton import (
    FORMAT_DEFLATE,
    FORMAT_LEPTON,
    LeptonConfig,
    convert,
    decompress,
)
from repro.core.session import (
    CodingStage,
    EncodeStats,
    code_segment_records,
    estimate_decode_memory,
    estimate_encode_memory,
    huffman_bit_breakdown,
    verify_and_index,
)
from repro.core.segments import (
    choose_thread_count,
    plan_segments,
    plan_segments_range,
)
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan
from repro.obs import trace_span

CHUNK_SIZE = 4 * 1024 * 1024


@dataclass
class StoredChunk:
    """One stored chunk: its payload, format, and original byte range."""

    index: int
    format: str  # "lepton" | "deflate"
    payload: bytes
    original_range: "tuple[int, int]"

    @property
    def original_size(self) -> int:
        return self.original_range[1] - self.original_range[0]


def chunk_ranges(total_size: int, chunk_size: int = CHUNK_SIZE) -> List["tuple[int, int]"]:
    """Byte ranges ``[a, b)`` of each chunk of a file."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if total_size == 0:
        return []
    return [
        (start, min(start + chunk_size, total_size))
        for start in range(0, total_size, chunk_size)
    ]


def split_chunks(data: bytes, chunk_size: int = CHUNK_SIZE) -> List[bytes]:
    """``data`` cut at :func:`chunk_ranges`: the chunks the back-end
    content-addresses by SHA-256 (§5.6's backfill scans hash these)."""
    return [data[a:b] for a, b in chunk_ranges(len(data), chunk_size)]


def deflate_chunks(data: bytes, ranges) -> List[StoredChunk]:
    """Every byte window of ``data`` as a Deflate chunk: the one fallback
    for a §6.2 reject and for a chunk that fails the §5.7 verify."""
    return [StoredChunk(i, FORMAT_DEFLATE, zlib.compress(data[a:b], 6), (a, b))
            for i, (a, b) in enumerate(ranges)]


def compress_chunked(
    data: bytes,
    chunk_size: int = CHUNK_SIZE,
    config: Optional[LeptonConfig] = None,
    deadline: Optional[float] = None,
    on_window: Optional[Callable[[StoredChunk], None]] = None,
    coding=CodingStage,
) -> List[StoredChunk]:
    """Split ``data`` into chunks and compress each independently.

    JPEG files get Lepton chunks (each independently decodable); anything
    Lepton rejects is classified with its §6.2 exit code exactly as
    :func:`~repro.core.lepton.compress` classifies it, and stored as
    per-chunk Deflate whatever ``deflate_fallback`` says, mirroring
    production.  ``deadline`` (a monotonic timestamp) propagates into the
    segment coder, which raises :class:`~repro.core.errors.TimeoutExceeded`
    between segments once it passes — the serve path's end-to-end deadline
    reaching actual codec work.  ``on_window`` sees each Lepton chunk as
    soon as it is coded, and ``coding`` makes each segment's coding stage
    (see :func:`encode_windows`).
    """
    _, _, _, chunks = convert(data, chunk_ranges(len(data), chunk_size),
                              config or LeptonConfig(), deadline=deadline,
                              on_window=on_window, coding=coding)
    return chunks


def _stage(stats: EncodeStats, name: str, fn, *args):
    """Run one pipeline stage under its span; add its time to ``stats``."""
    with trace_span("lepton.encode." + name) as rec:
        value = fn(*args)
    stats.stage_seconds[name] = (
        stats.stage_seconds.get(name, 0.0) + rec.wall_seconds)
    return value


def encode_windows(data: bytes, ranges, config: LeptonConfig,
                   stats: EncodeStats, deadline: Optional[float] = None,
                   on_window: Optional[Callable[[StoredChunk], None]] = None,
                   coding=CodingStage) -> List[StoredChunk]:
    """The one encode pipeline: one Lepton container per byte window.

    Parse, Huffman-decode and verify the whole file once (§5.7), check
    the §4.2 memory budgets, then code each window of ``ranges`` through
    :func:`~repro.core.session.code_segment_records` and write its
    container.  A whole-file ``compress`` is the one-window case.  Any
    reject raises; :func:`~repro.core.lepton.convert` classifies it.
    Stage and segment timings land on ``stats``; the Figure-4 accounting
    runs only with ``config.collect_breakdown``.  ``on_window`` gets each
    window's chunk as soon as its container is written, so a caller can
    verify it while the next window codes; a later window may still
    reject the file.
    ``coding`` makes each segment's coding stage (in this process by
    default; see :func:`~repro.core.session.code_segment_records`).
    """
    img = _stage(stats, "parse", parse_jpeg, data,
                 4 if config.allow_cmyk else 3)
    _stage(stats, "scan_decode", decode_scan, img)
    positions = _stage(stats, "verify_index", verify_and_index, img)
    offsets = [p.byte_offset for p in positions]  # non-decreasing, len = MCUs+1
    header_len = len(img.header_bytes)
    scan_len = len(img.scan_data)
    frame = img.frame
    mcu_count = frame.mcu_count
    threads = (
        config.threads if config.threads is not None else choose_thread_count(len(data))
    )
    stats.thread_count = len(plan_segments(frame.mcus_y, frame.mcus_x, threads))
    # §4.2: a read decodes one window's container; the encode holds the
    # whole image whatever the windows.
    window_scan = max(max(0, min(b, header_len + scan_len) - max(a, header_len))
                      for a, b in ranges)
    for kind, needed, limit, code in (
        ("decode", estimate_decode_memory(img, window_scan),
         config.decode_memory_limit, ExitCode.DECODE_MEMORY_EXCEEDED),
        ("encode", estimate_encode_memory(img, stats.thread_count),
         config.encode_memory_limit, ExitCode.ENCODE_MEMORY_EXCEEDED),
    ):
        if limit is not None and needed > limit:
            raise MemoryLimitExceeded(
                f"{kind} would need {needed} bytes > limit {limit}", code)

    chunks: List[StoredChunk] = []
    for index, (a, b) in enumerate(ranges):
        # Partition this chunk's window into header / scan / trailer parts.
        prefix_offset = min(a, header_len)
        prefix_length = max(0, min(b, header_len) - prefix_offset)
        scan_lo = max(0, min(a - header_len, scan_len))
        scan_hi = max(0, min(b - header_len, scan_len))
        trailer_lo = max(0, a - header_len - scan_len)
        trailer_hi = max(0, b - header_len - scan_len)
        trailer = img.trailer_bytes[trailer_lo:trailer_hi]

        segments = []
        scan_skip = 0
        pad_final = False
        if scan_hi > scan_lo:
            # MCU whose encoding covers byte scan_lo: the last MCU starting
            # at or before it.  bisect_right-1 also skips zero-length MCU
            # starts that share the same byte.  Clamp to the last real MCU:
            # a window holding only the final pad byte (scan_lo >= the
            # end-of-scan offset) is produced by re-encoding the last MCU
            # with pad_final and trimming via scan_skip.  A window from the
            # scan's first byte codes from MCU 0, as a whole file does,
            # even when the first MCUs code to under a byte.
            m_a = 0
            if scan_lo:
                m_a = min(bisect_right(offsets, scan_lo) - 1, mcu_count - 1)
            if scan_hi >= scan_len:
                m_b = mcu_count
                pad_final = True
            else:
                m_b = bisect_left(offsets, scan_hi)
                m_b = min(max(m_b, m_a + 1), mcu_count)
            scan_skip = scan_lo - offsets[m_a]
            seg_ranges = plan_segments_range(m_a, m_b, frame.mcus_x, threads)
            # The one segment-coding loop (session.py); D6 forbids a fork here.
            segments = code_segment_records(
                img, seg_ranges, positions, config.model, stats,
                deadline=deadline, account=config.collect_breakdown,
                coding=coding,
            )

        lepton = LeptonFile(
            jpeg_header=img.header_bytes,
            pad_bit=img.pad_bit or 0,
            rst_count=img.rst_count,
            output_size=b - a,
            prefix_offset=prefix_offset,
            prefix_length=prefix_length,
            trailer=trailer,
            scan_skip=scan_skip,
            scan_take=scan_hi - scan_lo,
            pad_final=pad_final,
            segments=segments,
        )
        payload = _stage(stats, "container", write_container, lepton)
        stats.output_size += len(payload)
        chunks.append(StoredChunk(index, FORMAT_LEPTON, payload, (a, b)))
        if on_window is not None:
            on_window(chunks[-1])
    if config.collect_breakdown:
        stats.original_bits = huffman_bit_breakdown(img)
    return chunks


def decompress_chunk(chunk: StoredChunk,
                     deadline: Optional[float] = None) -> bytes:
    """Recover one chunk's exact original bytes — no other chunk needed.

    The payload's own magic selects Lepton or Deflate: a zlib stream's
    first byte always ends in hex 8, so it never starts with ``CF 84``.
    """
    return decompress(chunk.payload, deadline=deadline)
