"""Streaming codec sessions: the one pipeline from bytes-in to chunks-out.

Production Lepton is fundamentally a *streaming* system: decodes start
returning bytes before they finish (§4.2's width-bounded working set, §5's
4-MiB chunk serving path), and every caller — CLI, blockserver, timed
benchmark — runs the same code with different plumbing.  This module is
that single pipeline for the reproduction; in the library,
:func:`repro.core.lepton.compress` and
:func:`repro.core.lepton.decompress_chunks` are the only code that builds
a session:

* :class:`EncodeSession` consumes input chunks and yields the container as
  chunks (header first, then interleaved arithmetic sections);
* :class:`DecodeSession` consumes container chunks and yields original
  bytes as soon as they are decodable — the file prefix right after the
  secondary header parses, then one piece per decoded MCU row band;
* :func:`code_segment_records` is the *only* place a
  :class:`~repro.core.coefcoder.SegmentCodec` drives a
  :class:`~repro.core.bool_coder.BoolEncoder` over an MCU range.  Lint
  rule D6 (``codec-loop-containment``) forbids re-growing forked copies of
  this loop elsewhere, which is how the whole-buffer entry points of
  earlier builds diverged (a timed encode twin silently dropped the
  memory limits and CMYK policy its sibling enforced).

Decoding always runs the row-window discipline: per segment, coefficients
live in a sliding :class:`~repro.core.rowbuffer.RowWindow` of a few block
rows, one MCU row is arithmetic-decoded, immediately Huffman re-encoded and
emitted, then the rows it no longer needs are recycled — working set
proportional to image *width*, not area (§1, §4.2).  The row-window decode
is bit-identical to a full-array decode because segment context never
crosses the window (``seg_start`` pins visibility), which the bounded-decode
test suite pins down.

Timing flows through the observability spans (docs/observability.md): a
caller that wants per-stage or per-segment timings (the fig. 1/7/8
benchmarks) drives a session and reads :attr:`EncodeSession.stage_seconds`,
:attr:`segment_seconds` and :attr:`DecodeSession.wall_seconds` off it,
rather than keeping a forked copy of the codec loop with inline clocks.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.coefcoder import SegmentCodec
from repro.core.errors import (
    ExitCode,
    FormatError,
    LeptonError,
    MemoryLimitExceeded,
    TimeoutExceeded,
)
from repro.core.format import (
    ContainerReader,
    LeptonFile,
    SegmentRecord,
    iter_container,
)
from repro.core.handover import HandoverWord
from repro.core.model import Model, ModelConfig
from repro.core.rowbuffer import RowWindow
from repro.core.segments import choose_thread_count, plan_segments
from repro.jpeg.parser import JpegImage, parse_jpeg
from repro.jpeg.scan_decode import decode_scan, mcu_block_layout
from repro.jpeg.scan_encode import ScanEncoder, encode_scan
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER
from repro.obs import get_registry, trace_span


class RoundtripMismatch(LeptonError):
    """Huffman re-encode did not reproduce the original scan (§5.7).

    Typically a mid-scan corruption (§A.3) that the Lepton format cannot
    represent; the caller falls back to Deflate.
    """


@dataclass
class EncodeStats:
    """Measurements collected during one compression."""

    input_size: int
    output_size: int = 0
    thread_count: int = 0
    segment_sizes: List[int] = field(default_factory=list)
    # Arithmetic-coded information content per component category (bits).
    bit_costs: Dict[str, float] = field(default_factory=dict)
    # Original Huffman bits per category (for the Figure-4 breakdown).
    original_bits: Dict[str, float] = field(default_factory=dict)
    model_bins: int = 0
    encode_seconds: float = 0.0

    @property
    def savings_fraction(self) -> float:
        if self.input_size == 0:
            return 0.0
        return 1.0 - self.output_size / self.input_size


def huffman_bit_breakdown(img: JpegImage) -> Dict[str, float]:
    """Original Huffman bits per component category (Figure 4, column 1).

    Re-walks the coefficients and tallies the exact Huffman bits each
    symbol would use, attributing (run, size) symbols to the zigzag
    category where the run starts; header and trailer bytes are charged to
    'header'.
    """
    def category_of(zigzag_index: int) -> str:
        raster = int(ZIGZAG_TO_RASTER[zigzag_index])
        u, v = divmod(raster, 8)
        if raster == 0:
            return "dc"
        if u == 0 or v == 0:
            return "edge"
        return "7x7"

    bits = {"header": 8.0 * (len(img.header_bytes) + len(img.trailer_bytes)),
            "dc": 0.0, "edge": 0.0, "7x7": 0.0, "nnz": 0.0}
    frame = img.frame
    layout = mcu_block_layout(frame)
    dc_tables = [img.dc_huffman(c) for c in frame.components]
    ac_tables = [img.ac_huffman(c) for c in frame.components]
    dc_pred = [0] * len(frame.components)
    interval = img.restart_interval
    rst_emitted = 0
    for mcu in range(frame.mcu_count):
        if interval and mcu > 0 and mcu % interval == 0 and rst_emitted < img.rst_count:
            bits["header"] += 16.0  # the RST marker itself
            rst_emitted += 1
            dc_pred = [0] * len(frame.components)
        mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
        for ci, dy, dx in layout:
            comp = frame.components[ci]
            by = mcu_y * (comp.v if frame.interleaved else 1) + dy
            bx = mcu_x * (comp.h if frame.interleaved else 1) + dx
            block = img.coefficients[ci][by, bx]
            dc = int(block[0])
            diff = dc - dc_pred[ci]
            dc_pred[ci] = dc
            size = abs(diff).bit_length()
            bits["dc"] += dc_tables[ci].encode_symbol(size)[1] + size
            run = 0
            run_start = 1
            for k in range(1, 64):
                value = int(block[ZIGZAG_TO_RASTER[k]])
                if value == 0:
                    if run == 0:
                        run_start = k
                    run += 1
                    continue
                cat = category_of(run_start if run else k)
                while run > 15:
                    bits[cat] += ac_tables[ci].encode_symbol(0xF0)[1]
                    run -= 16
                size = abs(value).bit_length()
                sym_bits = ac_tables[ci].encode_symbol((run << 4) | size)[1]
                bits[category_of(k)] += sym_bits + size
                run = 0
            if run:
                bits[category_of(run_start)] += ac_tables[ci].encode_symbol(0x00)[1]
    return bits


def estimate_decode_memory(img: JpegImage, threads: int) -> int:
    """Bytes of working set a decode of this file needs.

    Coefficient arrays dominate; each thread duplicates the model (§4.2:
    24 MiB single-threaded, 39 MiB at p99 multithreaded in production).
    """
    coeff_bytes = sum(c.blocks_w * c.blocks_h * 64 * 4 for c in img.frame.components)
    nnz_bytes = sum(c.blocks_w * c.blocks_h * 4 for c in img.frame.components)
    model_bytes = threads * (1 << 20)  # per-thread model + coder buffers
    return coeff_bytes + nnz_bytes + model_bytes + len(img.scan_data)


def estimate_encode_memory(img: JpegImage, threads: int) -> int:
    """Encoding additionally retains the whole file and position index."""
    positions_bytes = img.frame.mcu_count * 64
    return estimate_decode_memory(img, threads) + img.total_size + positions_bytes


def verify_and_index(img: JpegImage):
    """Round-trip the scan; returns per-MCU positions or raises.

    This single pass provides both the admission guarantee (§5.7) and the
    handover-word index used for thread segments and chunk boundaries.
    """
    scan_bytes, positions = encode_scan(img, record_positions=True)
    if scan_bytes != img.scan_data:
        raise RoundtripMismatch(
            f"scan re-encode mismatch: {len(scan_bytes)} vs {len(img.scan_data)} bytes"
        )
    return positions


def code_segment_records(
    img: JpegImage,
    seg_ranges,
    positions,
    model_config: ModelConfig,
    deadline: Optional[float] = None,
    stats: Optional[EncodeStats] = None,
    segment_seconds: Optional[List[float]] = None,
) -> List[SegmentRecord]:
    """Arithmetic-code the given MCU ranges into :class:`SegmentRecord`\\ s.

    This is the *only* segment-coding loop in the tree: whole-file encodes
    (:class:`EncodeSession`) and 4-MiB chunk windows
    (:mod:`repro.core.chunks`) both route through it, and lint rule D6
    rejects any new ``SegmentCodec``/``BoolEncoder`` drive loop outside
    this module.  Model construction and boolean coding are one interleaved
    stage: every coded bit consults the adaptive bins it just updated.  The
    Figure-4 information accounting runs only when ``stats`` is given.
    """
    frame = img.frame
    segments: List[SegmentRecord] = []
    for segment_index, (mcu_start, mcu_end) in enumerate(seg_ranges):
        # Wall-clock by definition (§6.6); can only reject, never recode.
        if deadline is not None and time.monotonic() > deadline:  # lint: disable=D2
            raise TimeoutExceeded("encode exceeded its deadline")
        with trace_span("lepton.encode.code_segment", segment=segment_index) as rec:
            model = Model(model_config, account=stats is not None)
            codec = SegmentCodec(frame, img.quant_tables, img.coefficients,
                                 model_config, model)
            encoder = BoolEncoder()
            codec.encode(encoder, mcu_start, mcu_end)
            coded = encoder.finish()
        if segment_seconds is not None:
            segment_seconds.append(rec.wall_seconds)
        handover = HandoverWord.from_position(positions[mcu_start])
        segments.append(SegmentRecord(mcu_start, mcu_end, handover, coded))
        if stats is not None:
            stats.segment_sizes.append(len(coded))
            for category, bits in model.bit_costs.items():
                stats.bit_costs[category] = stats.bit_costs.get(category, 0.0) + bits
            stats.model_bins += model.bin_count
    return segments


class EncodeSession:
    """Streaming JPEG → Lepton conversion (§3).

    Feed input chunks with :meth:`write`; :meth:`finish` runs the pipeline
    — parse, Huffman scan decode, the §5.7 round-trip admission check,
    segment planning, memory-budget enforcement, arithmetic coding — and
    yields the container as chunks via the incremental writer.  Encoding
    inherently sees the whole file (the admission check re-encodes the
    entire scan), so ``write`` buffers; the *output* side streams.

    After :meth:`finish` is exhausted, :attr:`stats` holds the
    :class:`EncodeStats`, :attr:`image` the parsed JPEG, and
    :attr:`stage_seconds` / :attr:`segment_seconds` the per-stage span
    timings.
    """

    def __init__(
        self,
        model_config: Optional[ModelConfig] = None,
        threads: Optional[int] = None,
        decode_memory_limit: Optional[int] = None,
        encode_memory_limit: Optional[int] = None,
        deadline: Optional[float] = None,
        allow_cmyk: bool = False,
    ):
        self._model_config = model_config or ModelConfig()
        self._threads = threads
        self._decode_memory_limit = decode_memory_limit
        self._encode_memory_limit = encode_memory_limit
        self._deadline = deadline
        self._allow_cmyk = allow_cmyk
        self._parts: List[bytes] = []
        self.image: Optional[JpegImage] = None
        self.stats: Optional[EncodeStats] = None
        self.stage_seconds: Dict[str, float] = {}
        self.segment_seconds: List[float] = []

    def write(self, chunk: bytes) -> None:
        """Buffer one chunk of the input JPEG."""
        self._parts.append(bytes(chunk))

    def _stage(self, name: str, record) -> None:
        self.stage_seconds[name] = (
            self.stage_seconds.get(name, 0.0) + record.wall_seconds
        )

    def finish(self) -> Iterator[bytes]:
        """Run the pipeline; yields the Lepton container as chunks."""
        data = b"".join(self._parts)
        self._parts = []
        with trace_span("lepton.encode.parse") as rec:
            img = parse_jpeg(data, max_components=4 if self._allow_cmyk else 3)
        self._stage("parse", rec)
        with trace_span("lepton.encode.scan_decode") as rec:
            decode_scan(img)
        self._stage("scan_decode", rec)
        with trace_span("lepton.encode.verify_index") as rec:
            positions = verify_and_index(img)
        self._stage("verify_index", rec)

        thread_count = (
            self._threads if self._threads is not None else choose_thread_count(len(data))
        )
        frame = img.frame
        seg_ranges = plan_segments(frame.mcus_y, frame.mcus_x, thread_count)

        if self._decode_memory_limit is not None:
            needed = estimate_decode_memory(img, len(seg_ranges))
            if needed > self._decode_memory_limit:
                raise MemoryLimitExceeded(
                    f"decode would need {needed} bytes > limit {self._decode_memory_limit}",
                    ExitCode.DECODE_MEMORY_EXCEEDED,
                )
        if self._encode_memory_limit is not None:
            needed = estimate_encode_memory(img, len(seg_ranges))
            if needed > self._encode_memory_limit:
                raise MemoryLimitExceeded(
                    f"encode would need {needed} bytes > limit {self._encode_memory_limit}",
                    ExitCode.ENCODE_MEMORY_EXCEEDED,
                )

        stats = EncodeStats(input_size=len(data), thread_count=len(seg_ranges))
        segments = code_segment_records(
            img,
            seg_ranges,
            positions,
            self._model_config,
            deadline=self._deadline,
            stats=stats,
            segment_seconds=self.segment_seconds,
        )
        lepton = LeptonFile(
            jpeg_header=img.header_bytes,
            pad_bit=img.pad_bit or 0,
            rst_count=img.rst_count,
            output_size=len(data),
            prefix_offset=0,
            prefix_length=len(img.header_bytes),
            trailer=img.trailer_bytes,
            scan_skip=0,
            scan_take=len(img.scan_data),
            pad_final=True,
            segments=segments,
        )
        self.image = img
        self.stats = stats
        pieces = iter_container(lepton)
        while True:
            with trace_span("lepton.encode.container") as rec:
                piece = next(pieces, None)
            self._stage("container", rec)
            if piece is None:
                break
            stats.output_size += len(piece)
            yield piece
        stats.encode_seconds = (
            sum(self.stage_seconds.values()) + sum(self.segment_seconds)
        )


class DecodeSession:
    """Streaming Lepton → JPEG decode with a pinned working set.

    Feed container chunks with :meth:`write` and consume the iterator each
    call returns; call :meth:`finish` (and consume it) after the last
    chunk.  The emitted file prefix appears as soon as the secondary header
    has arrived — before any arithmetic byte — so time-to-first-byte does
    not wait for the payload tail (observable via the
    ``lepton.session.decode.ttfb_seconds`` histogram).

    Every decode runs row-by-row against sliding
    :class:`~repro.core.rowbuffer.RowWindow` buffers (§1, §4.2).  With
    ``parallel=True``, completed segments decode concurrently in a thread
    pool while emission stays strictly in segment order; with
    ``parallel=False`` segments decode lazily on the consuming thread — the
    footprint-over-parallelism mode, like the paper's 24-MiB single-thread
    figure.
    """

    def __init__(
        self,
        model_config: Optional[ModelConfig] = None,
        parallel: bool = False,
        deadline: Optional[float] = None,
    ):
        self._model_config = model_config or ModelConfig()
        self._parallel = parallel
        self._deadline = deadline
        self._reader = ContainerReader()
        self._lepton: Optional[LeptonFile] = None
        self._img: Optional[JpegImage] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._futures: Dict[int, object] = {}
        self._ready: Dict[int, bool] = {}
        self._pending: List[tuple] = []
        self._next_emit = 0
        self._scan_position = 0
        self._scan_emitted = 0
        self._produced = 0
        self._emitted_any = False
        self._overhead_seconds = 0.0
        self._created_at = time.monotonic()  # lint: disable=D2 - telemetry only
        self.segment_seconds: List[float] = []

    @property
    def wall_seconds(self) -> float:
        """Total decode time so far, summed from the session's spans."""
        return self._overhead_seconds + sum(self.segment_seconds)

    def write(self, chunk: bytes) -> Iterator[bytes]:
        """Consume one container chunk; yields any newly decodable output."""
        get_registry().counter("lepton.session.decode.bytes_in").inc(len(chunk))
        self._pending.extend(self._reader.feed(chunk))
        return self._drain()

    def finish(self) -> Iterator[bytes]:
        """Declare end of input; yields the remaining output and validates."""
        lepton = self._reader.finish()
        yield from self._drain()
        with trace_span("lepton.session.decode.finish") as rec:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
            if lepton.segments and self._scan_emitted != lepton.scan_take:
                raise FormatError(
                    f"scan window produced {self._scan_emitted} bytes, "
                    f"expected {lepton.scan_take}"
                )
        self._overhead_seconds += rec.wall_seconds
        if lepton.trailer:
            yield self._emit(lepton.trailer)
        if self._produced != lepton.output_size:
            raise FormatError(
                f"decoded {self._produced} bytes, container promised "
                f"{lepton.output_size}"
            )

    # -- event plumbing ----------------------------------------------------

    def _drain(self) -> Iterator[bytes]:
        while self._pending:
            kind, value = self._pending.pop(0)
            if kind == "header":
                yield from self._start(value)
            else:
                yield from self._on_segment(value)

    def _emit(self, piece: bytes) -> bytes:
        self._produced += len(piece)
        registry = get_registry()
        registry.counter("lepton.session.decode.bytes_out").inc(len(piece))
        if not self._emitted_any:
            self._emitted_any = True
            registry.histogram("lepton.session.decode.ttfb_seconds").observe(
                time.monotonic() - self._created_at  # lint: disable=D2 - telemetry only
            )
        return piece

    def _start(self, lepton: LeptonFile) -> Iterator[bytes]:
        with trace_span("lepton.session.decode.header") as rec:
            self._lepton = lepton
            self.segment_seconds = [0.0] * len(lepton.segments)
            prefix = b""
            if lepton.prefix_length:
                prefix = lepton.prefix
                if len(prefix) != lepton.prefix_length:
                    raise FormatError("prefix slice outside stored JPEG header")
            if lepton.segments:
                img = parse_jpeg(lepton.jpeg_header, max_components=4)
                img.pad_bit = lepton.pad_bit
                img.rst_count = lepton.rst_count
                self._validate_segments(lepton, img.frame)
                self._img = img
                if self._parallel and len(lepton.segments) > 1:
                    self._pool = ThreadPoolExecutor(
                        max_workers=len(lepton.segments)
                    )
        self._overhead_seconds += rec.wall_seconds
        if prefix:
            yield self._emit(prefix)

    @staticmethod
    def _validate_segments(lepton: LeptonFile, frame) -> None:
        """Reject MCU ranges a corrupt secondary header cannot make good."""
        for index, seg in enumerate(lepton.segments):
            if not 0 <= seg.mcu_start <= seg.mcu_end <= frame.mcu_count:
                raise FormatError(
                    f"segment {index} MCU range [{seg.mcu_start}, "
                    f"{seg.mcu_end}) outside image ({frame.mcu_count} MCUs)"
                )

    def _on_segment(self, index: int) -> Iterator[bytes]:
        if self._pool is not None:
            self._futures[index] = self._pool.submit(
                lambda i=index: list(self._segment_pieces(i))
            )
        else:
            self._ready[index] = True
        while self._lepton is not None and self._next_emit < len(self._lepton.segments):
            i = self._next_emit
            if self._pool is not None:
                future = self._futures.pop(i, None)
                if future is None:
                    break
                self._next_emit += 1
                for piece in future.result():
                    trimmed = self._trim(piece)
                    if trimmed:
                        yield self._emit(trimmed)
            else:
                if not self._ready.pop(i, False):
                    break
                self._next_emit += 1
                for piece in self._segment_pieces(i):
                    trimmed = self._trim(piece)
                    if trimmed:
                        yield self._emit(trimmed)

    def _trim(self, piece: bytes) -> bytes:
        """Clip one scan piece to the container's byte window (chunking)."""
        lepton = self._lepton
        lo = max(lepton.scan_skip - self._scan_position, 0)
        hi = min(len(piece), lepton.scan_skip + lepton.scan_take - self._scan_position)
        self._scan_position += len(piece)
        if hi > lo:
            out = piece[lo:hi]
            self._scan_emitted += len(out)
            return out
        return b""

    def _segment_pieces(self, index: int) -> Iterator[bytes]:
        """Decode one segment row band by row band (untrimmed pieces)."""
        lepton = self._lepton
        img = self._img
        frame = img.frame
        seg = lepton.segments[index]
        window_rows = 2 * frame.max_v + 2
        windows = [
            RowWindow(c.blocks_h, c.blocks_w,
                      window=window_rows * (c.v if frame.interleaved else 1))
            for c in frame.components
        ]
        codec = SegmentCodec(frame, img.quant_tables, windows, self._model_config)
        bool_dec = BoolDecoder(seg.data)
        handover = seg.handover
        writer = ScanEncoder(
            img, windows,
            start_mcu=seg.mcu_start,
            dc_pred=handover.dc_pred,
            rst_emitted=handover.rst_emitted,
            partial_byte=handover.partial_byte,
            partial_bits=handover.partial_bits,
        )
        is_last = index == len(lepton.segments) - 1
        # Slide each window to the segment's first block row.
        start_row = seg.mcu_start // frame.mcus_x
        for ci, comp in enumerate(frame.components):
            factor = comp.v if frame.interleaved else 1
            windows[ci].release_below(start_row * factor)
        mcu = seg.mcu_start
        while mcu < seg.mcu_end:
            # Cooperative cancellation (§5.6 tail latency): an exceeded
            # deadline stops the decode between row bands rather than
            # finishing work nobody is waiting for.
            if (self._deadline is not None
                    and time.monotonic() > self._deadline):  # lint: disable=D2
                raise TimeoutExceeded("decode exceeded its deadline")
            row_end = min(((mcu // frame.mcus_x) + 1) * frame.mcus_x, seg.mcu_end)
            with trace_span("lepton.session.decode.step", segment=index) as rec:
                codec.decode(bool_dec, mcu, row_end, seg_start=seg.mcu_start)
                writer.encode_to(row_end)
                if row_end == seg.mcu_end and is_last and lepton.pad_final:
                    writer.writer.pad_to_byte(img.pad_bit or 0)
                piece = writer.drain()
            self.segment_seconds[index] += rec.wall_seconds
            yield piece
            # Recycle rows the next MCU row no longer needs: keep the final
            # block row of the row just finished (the neighbour context),
            # drop everything before it.
            finished_row = (row_end - 1) // frame.mcus_x
            for ci, comp in enumerate(frame.components):
                factor = comp.v if frame.interleaved else 1
                windows[ci].release_below(finished_row * factor + factor - 1)
            mcu = row_end
        seg.data = b""  # the arithmetic bytes are spent; release them
