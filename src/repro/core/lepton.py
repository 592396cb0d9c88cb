"""The public Lepton API: compress, decompress, round-trip admission.

This is the layer the blockservers call (§5): it maps every failure to a
§6.2 exit code, falls back to Deflate for inputs Lepton cannot represent
(so *something* is always stored), and never admits a Lepton payload that
was not verified to round-trip.
"""

import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.core import format as lformat
from repro.core.decoder import decode_lepton
from repro.core.encoder import EncodeStats, RoundtripMismatch, encode_jpeg
from repro.core.session import DecodeSession, EncodeSession
from repro.core.errors import (
    REASON_TO_EXIT,
    ExitCode,
    FormatError,
    LeptonError,
    MemoryLimitExceeded,
    TimeoutExceeded,
    ValueOutOfRange,
)
from repro.core.model import ModelConfig
from repro.jpeg.errors import JpegError, UnsupportedJpegError
from repro.obs import ExitCodeSink, get_registry, trace_span

#: Production memory budgets (§4.2 / §6.2).
DECODE_MEMORY_LIMIT = 24 * 1024 * 1024
ENCODE_MEMORY_LIMIT = 178 * 1024 * 1024

FORMAT_LEPTON = "lepton"
FORMAT_DEFLATE = "deflate"


@dataclass
class LeptonConfig:
    """Compression behaviour knobs (defaults match production)."""

    threads: Optional[int] = None  # None = size-based cutoffs (§5.4)
    model: ModelConfig = field(default_factory=ModelConfig)
    decode_memory_limit: Optional[int] = DECODE_MEMORY_LIMIT
    encode_memory_limit: Optional[int] = ENCODE_MEMORY_LIMIT
    timeout_seconds: Optional[float] = None
    deflate_fallback: bool = True
    collect_breakdown: bool = False
    interleave_slice: int = 4096
    #: §6.2: production rejects 4-colour JPEGs "for simplicity"; the codec
    #: itself handles them (a fourth per-channel model) when enabled.
    allow_cmyk: bool = False


@dataclass
class CompressionResult:
    """Outcome of one conversion attempt."""

    exit_code: ExitCode
    format: Optional[str]  # "lepton" | "deflate" | None
    payload: Optional[bytes]
    input_size: int
    stats: Optional[EncodeStats] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.exit_code.is_success

    @property
    def output_size(self) -> int:
        return len(self.payload) if self.payload is not None else 0

    @property
    def savings_fraction(self) -> float:
        if not self.payload or self.input_size == 0:
            return 0.0
        return 1.0 - len(self.payload) / self.input_size

    @property
    def compression_ratio(self) -> float:
        """Compressed/original — the paper reports 77.3% on average."""
        if not self.payload or self.input_size == 0:
            return 1.0
        return len(self.payload) / self.input_size


@dataclass
class DecompressionResult:
    """Outcome of a decompression."""

    data: bytes
    format: str
    decode_seconds: float


def _looks_like_jpeg(data: bytes) -> bool:
    """Plausibility probe: SOI followed by a well-formed marker chain.

    The production sample selects chunks by their first two bytes (§4), so
    "Not an image" covers data with a lucky SOI prefix but no JPEG structure
    behind it.  We require at least two consecutive valid marker segments.
    """
    if len(data) < 4 or data[0] != 0xFF or data[1] != 0xD8:
        return False
    pos = 2
    for _ in range(2):
        if pos + 4 > len(data) or data[pos] != 0xFF:
            return False
        marker = data[pos + 1]
        if marker in (0x00, 0xFF) or marker == 0xD8:
            return False
        length = (data[pos + 2] << 8) | data[pos + 3]
        if length < 2:
            return False
        pos += 2 + length
    return True


def _classify_jpeg_error(data: bytes, exc: JpegError) -> ExitCode:
    if isinstance(exc, UnsupportedJpegError):
        return REASON_TO_EXIT.get(exc.reason, ExitCode.UNSUPPORTED_JPEG)
    if not _looks_like_jpeg(data):
        return ExitCode.NOT_AN_IMAGE
    return ExitCode.UNSUPPORTED_JPEG


def _classify_reject(data: bytes, exc: Exception) -> "tuple[ExitCode, str]":
    """Map an encode-pipeline exception to its §6.2 exit code and detail.

    Shared by :func:`compress` and :func:`compress_stream` so the two entry
    points cannot drift apart on classification.
    """
    if isinstance(exc, JpegError):
        return _classify_jpeg_error(data, exc), str(exc)
    if isinstance(exc, RoundtripMismatch):
        return ExitCode.ROUNDTRIP_FAILED, str(exc)
    if isinstance(exc, ValueOutOfRange):
        return ExitCode.AC_OUT_OF_RANGE, str(exc)
    if isinstance(exc, MemoryLimitExceeded):
        return exc.exit_code, str(exc)
    if isinstance(exc, TimeoutExceeded):
        return ExitCode.TIMEOUT, str(exc)
    # An internal invariant broke mid-encode (say, a FormatError while
    # writing our own container): the §6.2 "Impossible" bucket.  The
    # contract that compress() never raises holds even for bugs.
    return ExitCode.IMPOSSIBLE, f"{type(exc).__name__}: {exc}"


#: Tabulates every conversion's §6.2 exit code (see docs/observability.md).
_EXIT_SINK = ExitCodeSink(metric="lepton.compress.exit_codes")


def compress(data: bytes, config: Optional[LeptonConfig] = None) -> CompressionResult:
    """Compress ``data``; always returns a result, never raises.

    JPEG inputs that Lepton supports become Lepton containers; everything
    else (non-images, progressive, CMYK, corrupt, over-budget) is recorded
    with its §6.2 exit code and — when ``deflate_fallback`` is on, as in
    production — stored as Deflate instead.
    """
    registry = get_registry()
    registry.counter("lepton.compress.attempts").inc()
    # Telemetry only: never feeds a coded decision.
    start = time.monotonic()  # lint: disable=D2
    with trace_span("lepton.compress", input_bytes=len(data)):
        result = _compress_inner(data, config)
    registry.histogram("lepton.compress.seconds").observe(
        time.monotonic() - start  # lint: disable=D2
    )
    _EXIT_SINK.record(result.exit_code)
    registry.counter("lepton.compress.input_bytes").inc(len(data))
    if result.payload is not None:
        registry.counter("lepton.compress.output_bytes").inc(len(result.payload))
    if result.format == FORMAT_DEFLATE:
        registry.counter("lepton.compress.fallbacks").inc()
    return result


def _compress_inner(data: bytes, config: Optional[LeptonConfig]) -> CompressionResult:
    config = config or LeptonConfig()
    # Timeouts are wall-clock by definition (§6.6) and only ever *reject* a
    # conversion — they cannot alter coded bytes of a successful one.
    deadline = (
        time.monotonic() + config.timeout_seconds  # lint: disable=D2
        if config.timeout_seconds is not None
        else None
    )
    exit_code = ExitCode.SUCCESS
    detail = ""
    try:
        payload, stats = encode_jpeg(
            data,
            model_config=config.model,
            threads=config.threads,
            decode_memory_limit=config.decode_memory_limit,
            encode_memory_limit=config.encode_memory_limit,
            deadline=deadline,
            collect_breakdown=config.collect_breakdown,
            interleave_slice=config.interleave_slice,
            allow_cmyk=config.allow_cmyk,
        )
        return CompressionResult(
            ExitCode.SUCCESS, FORMAT_LEPTON, payload, len(data), stats
        )
    except (JpegError, LeptonError) as exc:
        exit_code, detail = _classify_reject(data, exc)

    if config.deflate_fallback:
        payload = zlib.compress(data, 6)
        return CompressionResult(
            exit_code, FORMAT_DEFLATE, payload, len(data), None, detail
        )
    return CompressionResult(exit_code, None, None, len(data), None, detail)


def compress_stream(
    chunks, config: Optional[LeptonConfig] = None
) -> Iterator[bytes]:
    """Streaming compression: consume input chunks, yield payload chunks.

    ``chunks`` is any iterable of byte chunks (a file read loop, a network
    stream).  The yielded chunks concatenate to exactly what
    :func:`compress` would have returned as ``payload`` — a Lepton
    container on success, the Deflate fallback (produced incrementally) on
    a classified reject.  The generator's *return value* (``.value`` on the
    terminating :class:`StopIteration`) is the :class:`CompressionResult`
    with ``payload=None``: the bytes already went to the consumer.

    Like :func:`compress`, this never raises for classifiable rejects and
    feeds the same ``lepton.compress.*`` telemetry.
    """
    config = config or LeptonConfig()
    registry = get_registry()
    registry.counter("lepton.compress.attempts").inc()
    # Telemetry only: never feeds a coded decision.
    start = time.monotonic()  # lint: disable=D2
    deadline = (
        start + config.timeout_seconds
        if config.timeout_seconds is not None
        else None
    )
    session = EncodeSession(
        model_config=config.model,
        threads=config.threads,
        decode_memory_limit=config.decode_memory_limit,
        encode_memory_limit=config.encode_memory_limit,
        deadline=deadline,
        interleave_slice=config.interleave_slice,
        allow_cmyk=config.allow_cmyk,
    )
    buffered = []
    total_in = 0
    for chunk in chunks:
        chunk = bytes(chunk)
        total_in += len(chunk)
        buffered.append(chunk)
        session.write(chunk)

    output_size = 0
    # The span stays open across yields: the encode stages it parents all
    # run inside, so the trace keeps the same shape as compress().
    with trace_span("lepton.compress", input_bytes=total_in):
        try:
            for piece in session.finish():
                output_size += len(piece)
                yield piece
            stats = session.stats
            if config.collect_breakdown:
                from repro.core.encoder import huffman_bit_breakdown

                stats.original_bits = huffman_bit_breakdown(session.image)
            result = CompressionResult(
                ExitCode.SUCCESS, FORMAT_LEPTON, None, total_in, stats
            )
        except (JpegError, LeptonError) as exc:
            exit_code, detail = _classify_reject(b"".join(buffered), exc)
            if config.deflate_fallback:
                # The parse stage rejects before any container chunk is
                # yielded, so the fallback stream starts from byte zero.
                deflater = zlib.compressobj(6)
                for chunk in buffered:
                    piece = deflater.compress(chunk)
                    if piece:
                        output_size += len(piece)
                        yield piece
                piece = deflater.flush()
                output_size += len(piece)
                yield piece
                result = CompressionResult(
                    exit_code, FORMAT_DEFLATE, None, total_in, None, detail
                )
                registry.counter("lepton.compress.fallbacks").inc()
            else:
                result = CompressionResult(
                    exit_code, None, None, total_in, None, detail
                )
    _EXIT_SINK.record(result.exit_code)
    registry.counter("lepton.compress.input_bytes").inc(total_in)
    if result.format is not None:
        registry.counter("lepton.compress.output_bytes").inc(output_size)
    registry.histogram("lepton.compress.seconds").observe(
        time.monotonic() - start  # lint: disable=D2
    )
    return result


def _inflate(payload: bytes) -> bytes:
    """Deflate-decode a stored payload, mapping garbage to the typed error.

    Empty or corrupt payloads used to leak a raw ``zlib.error`` out of
    every decompress entry point; callers match on :class:`FormatError`.
    """
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise FormatError(
            f"stored payload is neither Lepton nor Deflate: {exc}"
        ) from exc


def decompress(payload: bytes, parallel: bool = True,
               model_config: Optional[ModelConfig] = None) -> bytes:
    """Recover the exact original bytes from a stored payload.

    Auto-detects Lepton containers by magic; anything else is Deflate
    (the fallback path).
    """
    return decompress_result(payload, parallel, model_config).data


def decompress_result(payload: bytes, parallel: bool = True,
                      model_config: Optional[ModelConfig] = None) -> DecompressionResult:
    """Like :func:`decompress` but with timing and format metadata."""
    start = time.monotonic()  # lint: disable=D2 - telemetry only
    with trace_span("lepton.decompress", payload_bytes=len(payload)):
        if payload[:2] == lformat.MAGIC:
            data = decode_lepton(payload, model_config=model_config, parallel=parallel)
            fmt = FORMAT_LEPTON
        else:
            data = _inflate(payload)
            fmt = FORMAT_DEFLATE
    seconds = time.monotonic() - start  # lint: disable=D2 - telemetry only
    registry = get_registry()
    registry.counter("lepton.decompress.count", format=fmt).inc()
    registry.histogram("lepton.decompress.seconds").observe(seconds)
    return DecompressionResult(data, fmt, seconds)


def decompress_chunks(
    chunks,
    model_config: Optional[ModelConfig] = None,
    parallel: bool = False,
    deadline: Optional[float] = None,
) -> Iterator[bytes]:
    """Streaming decompression from an *iterator* of stored-payload chunks.

    The dual of :func:`compress_stream`: the format is sniffed from the
    first two bytes, Lepton containers stream through a
    :class:`~repro.core.session.DecodeSession` (output begins before the
    final input chunk is consumed), and anything else inflates
    incrementally as Deflate.  Garbage, truncated, and empty payloads all
    raise :class:`FormatError`.  ``deadline`` (a monotonic timestamp) is
    handed to the decode session, which cancels between row bands with
    :class:`~repro.core.errors.TimeoutExceeded` once it passes.
    """
    source = iter(chunks)
    head = b""
    while len(head) < 2:
        try:
            head += bytes(next(source))
        except StopIteration:
            break
    if head[:2] == lformat.MAGIC:
        session = DecodeSession(model_config=model_config, parallel=parallel,
                                deadline=deadline)
        yield from session.write(head)
        for chunk in source:
            yield from session.write(bytes(chunk))
        yield from session.finish()
        return
    inflater = zlib.decompressobj()
    try:
        piece = inflater.decompress(head)
        if piece:
            yield piece
        for chunk in source:
            piece = inflater.decompress(bytes(chunk))
            if piece:
                yield piece
        tail = inflater.flush()
    except zlib.error as exc:
        raise FormatError(
            f"stored payload is neither Lepton nor Deflate: {exc}"
        ) from exc
    if tail:
        yield tail
    if not inflater.eof:
        raise FormatError("stored payload is a truncated Deflate stream")


def roundtrip_check(data: bytes, config: Optional[LeptonConfig] = None) -> CompressionResult:
    """Compress and verify decompression — the blockserver admission gate.

    "The blockservers never admit chunks to the storage system that fail to
    round-trip" (§5.7).  Returns the compression result if the round trip
    holds; downgrades to the Deflate fallback if it does not.
    """
    result = compress(data, config)
    if result.format == FORMAT_LEPTON:
        try:
            recovered = decompress(result.payload)
        except (LeptonError, FormatError):
            recovered = None
        if recovered != data:
            get_registry().counter("lepton.verify.roundtrip_failures").inc()
            fallback = zlib.compress(data, 6)
            return CompressionResult(
                ExitCode.ROUNDTRIP_FAILED,
                FORMAT_DEFLATE,
                fallback,
                len(data),
                None,
                "post-compression round-trip verification failed",
            )
    return result
