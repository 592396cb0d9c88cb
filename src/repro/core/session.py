"""Codec building blocks: the one segment-coding loop and the decode session.

Production Lepton is fundamentally a *streaming* system: decodes start
returning bytes before they finish (§4.2's width-bounded working set, §5's
4-MiB chunk serving path), and every caller — CLI, blockserver, timed
benchmark — runs the same code with different plumbing.  This module holds:

* :class:`DecodeSession`, which consumes container chunks and yields
  original bytes as soon as they are decodable — the file prefix right
  after the secondary header parses, then one piece per decoded MCU row
  band; :func:`repro.core.lepton.decompress_chunks` is the only code that
  builds one;
* :func:`code_segment_records`, the *only* place a
  :class:`~repro.core.coefcoder.SegmentCodec` models an MCU range and a
  :class:`~repro.core.bool_coder.BoolEncoder` codes it (in two stages:
  :class:`RecordingCoder` records each row band's symbols and
  :class:`CodingStage` codes them), with the admission helpers of the one
  encode pipeline that calls it
  (:func:`repro.core.chunks.encode_windows`).  Lint rule D6
  (``codec-loop-containment``) forbids re-growing forked copies of this
  loop elsewhere, which is how the whole-buffer entry points of earlier
  builds diverged (a timed encode twin silently dropped the memory limits
  and CMYK policy its sibling enforced).

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
benchmarks) reads :attr:`EncodeStats.stage_seconds` and
:attr:`EncodeStats.segment_seconds` off a ``compress`` result, or
:attr:`DecodeSession.wall_seconds` off a decode session, rather than
keeping a forked copy of the codec loop with inline clocks.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.core.bool_coder import BoolDecoder, BoolEncoder, RecordingCoder
from repro.core.coefcoder import SegmentCodec
from repro.core.errors import FormatError, LeptonError, TimeoutExceeded
from repro.core.format import ContainerReader, LeptonFile, SegmentRecord
from repro.core.handover import HandoverWord
from repro.core.model import Model, ModelConfig
from repro.core.rowbuffer import RowWindow
from repro.jpeg.errors import JpegError
from repro.jpeg.parser import JpegImage, parse_jpeg
from repro.jpeg.scan_decode import mcu_block_layout
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
    #: Span wall time per pipeline stage (parse, scan_decode,
    #: verify_index, container) and per coded segment, as fig. 8 reads it.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    segment_seconds: List[float] = field(default_factory=list)

    @property
    def encode_seconds(self) -> float:
        return sum(self.stage_seconds.values()) + sum(self.segment_seconds)

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


#: Working-set bytes per 8x8 block: 64 int32 coefficients and a
#: non-zero count.
BLOCK_BYTES = 64 * 4 + 4
#: Working-set bytes of one model and its coder buffers.
MODEL_BYTES = 1 << 20


def window_rows(frame, comp) -> int:
    """Block rows of ``comp`` that a decode keeps in its RowWindow."""
    return (2 * frame.max_v + 2) * (comp.v if frame.interleaved else 1)


def estimate_decode_memory(img: JpegImage, scan_bytes: int) -> int:
    """Bytes of working set a decode of one container needs (§4.2).

    :class:`DecodeSession` holds no whole-image array: it decodes one
    segment at a time, through one model and a RowWindow of a few block
    rows per component, so the coefficient term grows with image width,
    not area (§1).  ``scan_bytes`` is the scan the container covers.
    """
    frame = img.frame
    blocks = sum(min(window_rows(frame, c), c.blocks_h) * c.blocks_w
                 for c in frame.components)
    return blocks * BLOCK_BYTES + MODEL_BYTES + scan_bytes


def estimate_encode_memory(img: JpegImage, threads: int) -> int:
    """Bytes of working set an encode of this file needs (§4.2).

    The Huffman decode fills the whole image's coefficient arrays before
    any window is coded; each of ``threads`` segments has its own model,
    and the file and its per-MCU position index stay resident.
    """
    blocks = sum(c.blocks_w * c.blocks_h for c in img.frame.components)
    return (blocks * BLOCK_BYTES + threads * MODEL_BYTES + len(img.scan_data)
            + img.total_size + img.frame.mcu_count * 64)


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


class CodedSegment(NamedTuple):
    """One segment out of the coding stage: its arithmetic-coded bytes,
    the bins its model touched, and its Figure-4 bit costs (empty unless
    accounted)."""

    data: bytes
    bins: int
    costs: Dict[str, float]


class CodingStage:
    """The coding stage of one segment: replays each band of recorded
    words through :class:`BoolEncoder` under the segment's own
    :class:`Model`, in the order they were recorded.

    :meth:`band` takes one MCU row band's words; the segment's last band
    returns its :class:`CodedSegment`.  :func:`code_segment_records` runs
    it in this process, one band right after it is recorded; a codec
    worker's coder, a child process that codes the bands of its worker's
    encode on a second CPU, runs it on bands that arrive over its pipe
    (:mod:`repro.storage.workers`).
    """

    def __init__(self, model_config: ModelConfig, account: bool = False):
        self._model = Model(model_config, account=account)
        self._encoder = BoolEncoder()
        self._accounts = (None, *(self._model.accounts or {}).values())

    def band(self, words, last: bool) -> Optional[CodedSegment]:
        """Code one band's words; the coded segment after its ``last``."""
        self._encoder.code_words(self._model.bins, words, self._accounts)
        if not last:
            return None
        return CodedSegment(self._encoder.finish(), self._model.bin_count,
                            self._model.bit_costs)


class CodingLost(LeptonError):
    """The coding stage went away before it returned a segment (the
    coder running it died, or could not code a band); the segment is
    coded again in this process."""


def _code_segment(img: JpegImage, mcu_start: int, mcu_end: int,
                  model_config: ModelConfig, account: bool, stage,
                  deadline: Optional[float]) -> CodedSegment:
    """Model MCUs ``[mcu_start, mcu_end)`` one MCU row band at a time,
    handing each band's words to the coding ``stage``; returns the coded
    segment."""
    frame = img.frame
    model = Model(model_config, account=account)
    codec = SegmentCodec(frame, img.quant_tables, img.coefficients,
                         model_config, model)
    recorder = RecordingCoder(model.accounts)
    mcu = mcu_start
    while True:
        # Wall-clock by definition (§6.6); can only reject, never recode.
        if deadline is not None and time.monotonic() > deadline:  # lint: disable=D2
            raise TimeoutExceeded("encode exceeded its deadline")
        band_end = min((mcu // frame.mcus_x + 1) * frame.mcus_x, mcu_end)
        codec.encode(recorder, mcu, band_end, seg_start=mcu_start)
        coded = stage.band(recorder.take(), band_end == mcu_end)
        if coded is not None:
            return coded
        mcu = band_end


def code_segment_records(
    img: JpegImage,
    seg_ranges,
    positions,
    model_config: ModelConfig,
    stats: EncodeStats,
    deadline: Optional[float] = None,
    account: bool = False,
    coding: Callable[[ModelConfig, bool], CodingStage] = CodingStage,
) -> List[SegmentRecord]:
    """Arithmetic-code the given MCU ranges into :class:`SegmentRecord`\\ s.

    This is the *only* segment-coding loop in the tree: every byte window
    of :func:`repro.core.chunks.encode_windows`, whole file or 4-MiB
    chunk, routes through it, and lint rule D6 rejects any new
    ``SegmentCodec``/``BoolEncoder`` drive loop outside this module.

    Each segment is coded in two stages.  The modelling stage runs
    :class:`SegmentCodec` one MCU row band at a time against a
    :class:`RecordingCoder`: contexts depend only on coefficients, never
    on bin states, so the symbol stream can be recorded first.  The
    coding stage, ``coding(model_config, account)`` per segment (a
    :class:`CodingStage` in this process by default), replays each band
    through the adaptive bins and the arithmetic coder, so the bytes are
    those of one interleaved pass.  A coding stage that is lost
    mid-segment raises :class:`CodingLost`; that segment and the rest are
    then coded again in this process.  The deadline is checked between
    bands.  Each segment's size and span time land on ``stats``; the
    Figure-4 information accounting runs only with ``account``.
    """
    segments: List[SegmentRecord] = []
    for segment_index, (mcu_start, mcu_end) in enumerate(seg_ranges):
        with trace_span("lepton.encode.code_segment", segment=segment_index) as rec:
            try:
                coded = _code_segment(img, mcu_start, mcu_end, model_config,
                                      account, coding(model_config, account),
                                      deadline)
            except CodingLost:
                coding = CodingStage
                coded = _code_segment(img, mcu_start, mcu_end, model_config,
                                      account, coding(model_config, account),
                                      deadline)
        handover = HandoverWord.from_position(positions[mcu_start])
        segments.append(SegmentRecord(mcu_start, mcu_end, handover, coded.data))
        stats.segment_seconds.append(rec.wall_seconds)
        stats.segment_sizes.append(len(coded.data))
        for category, bits in coded.costs.items():
            stats.bit_costs[category] = stats.bit_costs.get(category, 0.0) + bits
        stats.model_bins += coded.bins
    return segments


class DecodeSession:
    """Streaming Lepton → JPEG decode with a pinned working set.

    Feed container chunks with :meth:`write` and consume the iterator each
    call returns; call :meth:`finish` (and consume it) after the last
    chunk.  The emitted file prefix appears as soon as the secondary header
    has arrived — before any arithmetic byte — so time-to-first-byte does
    not wait for the payload tail (observable via the
    ``lepton.session.decode.ttfb_seconds`` histogram).

    Every decode runs row-by-row against sliding
    :class:`~repro.core.rowbuffer.RowWindow` buffers (§1, §4.2).  Segments
    decode in order, one after another on the consuming thread, each as
    soon as its arithmetic bytes and those of every earlier segment have
    arrived.  The paper's thread-per-segment wall clock is modelled by the
    fig. 1/7/8 benches from :attr:`segment_seconds`, not run (CPython's GIL
    would serialise it).
    """

    def __init__(
        self,
        model_config: Optional[ModelConfig] = None,
        deadline: Optional[float] = None,
    ):
        self._model_config = model_config or ModelConfig()
        self._deadline = deadline
        self._reader = ContainerReader()
        self._lepton: Optional[LeptonFile] = None
        self._img: Optional[JpegImage] = None
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
            try:
                if kind == "header":
                    yield from self._start(value)
                else:
                    yield from self._on_segment(value)
            except JpegError as exc:
                # The stored JPEG header does not parse, or the decoded
                # coefficients do not re-encode under its Huffman tables:
                # either way the container is what is malformed.
                raise FormatError(
                    f"container decodes to an invalid JPEG: {exc}") from exc

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
        """Mark segment ``index`` ready, then decode every ready segment in
        order."""
        self._ready[index] = True
        while self._ready.pop(self._next_emit, False):
            i = self._next_emit
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
        windows = [RowWindow(c.blocks_h, c.blocks_w, window=window_rows(frame, c))
                   for c in frame.components]
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
