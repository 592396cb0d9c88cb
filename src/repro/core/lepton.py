"""The public Lepton API: one codec, two directions (§3.4, §5).

* :func:`compress` runs an :class:`~repro.core.session.EncodeSession` over
  a whole file;
* :func:`decompress_chunks` is the one decode implementation, a stream of
  stored-payload chunks in, original bytes out;
* :func:`decompress` is its bytes-level join, which owns the decode
  telemetry;
* :func:`roundtrip_check` is the §5.7 admission gate over the two.

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
from repro.core.session import (
    DecodeSession,
    EncodeSession,
    EncodeStats,
    RoundtripMismatch,
    huffman_bit_breakdown,
)
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
    """Map an encode-pipeline exception to its §6.2 exit code and detail."""
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

    JPEG inputs that Lepton supports become Lepton containers, produced by
    one :class:`~repro.core.session.EncodeSession`; everything else
    (non-images, progressive, CMYK, corrupt, over-budget) is recorded with
    its §6.2 exit code and — when ``deflate_fallback`` is on, as in
    production — stored as Deflate instead.
    """
    config = config or LeptonConfig()
    registry = get_registry()
    registry.counter("lepton.compress.attempts").inc()
    # Telemetry, and a timeout (wall-clock by definition, §6.6) only ever
    # *rejects* a conversion: neither can alter the coded bytes of one.
    start = time.monotonic()  # lint: disable=D2
    session = EncodeSession(
        model_config=config.model,
        threads=config.threads,
        decode_memory_limit=config.decode_memory_limit,
        encode_memory_limit=config.encode_memory_limit,
        deadline=(start + config.timeout_seconds
                  if config.timeout_seconds is not None else None),
        allow_cmyk=config.allow_cmyk,
    )
    session.write(data)
    with trace_span("lepton.compress", input_bytes=len(data)):
        try:
            payload = b"".join(session.finish())
            if config.collect_breakdown:
                session.stats.original_bits = huffman_bit_breakdown(session.image)
            result = CompressionResult(
                ExitCode.SUCCESS, FORMAT_LEPTON, payload, len(data), session.stats
            )
        except (JpegError, LeptonError) as exc:
            exit_code, detail = _classify_reject(data, exc)
            if config.deflate_fallback:
                result = CompressionResult(
                    exit_code, FORMAT_DEFLATE, zlib.compress(data, 6),
                    len(data), None, detail,
                )
            else:
                result = CompressionResult(
                    exit_code, None, None, len(data), None, detail
                )
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


def decompress(payload: bytes, parallel: bool = True,
               model_config: Optional[ModelConfig] = None,
               deadline: Optional[float] = None) -> bytes:
    """Recover the exact original bytes from a stored payload.

    The bytes-level join over :func:`decompress_chunks`: Lepton containers
    are detected by magic, anything else is Deflate (the fallback path).
    Every call records the ``lepton.decompress`` span and the
    ``lepton.decompress.{count,seconds}`` metrics.
    """
    start = time.monotonic()  # lint: disable=D2 - telemetry only
    with trace_span("lepton.decompress", payload_bytes=len(payload)):
        data = b"".join(decompress_chunks([payload], model_config=model_config,
                                          parallel=parallel, deadline=deadline))
    seconds = time.monotonic() - start  # lint: disable=D2 - telemetry only
    fmt = FORMAT_LEPTON if payload[:2] == lformat.MAGIC else FORMAT_DEFLATE
    registry = get_registry()
    registry.counter("lepton.decompress.count", format=fmt).inc()
    registry.histogram("lepton.decompress.seconds").observe(seconds)
    return data


def decompress_chunks(
    chunks,
    model_config: Optional[ModelConfig] = None,
    parallel: bool = False,
    deadline: Optional[float] = None,
) -> Iterator[bytes]:
    """Streaming decompression from an *iterator* of stored-payload chunks.

    The one decode implementation: the format is sniffed from the first
    two bytes, Lepton containers stream through a
    :class:`~repro.core.session.DecodeSession` (output begins before the
    final input chunk is consumed), and anything else inflates
    incrementally as Deflate.  Garbage, truncated and empty payloads, and
    bytes after the end of either format, all raise :class:`FormatError`.
    ``deadline`` (a monotonic timestamp) is handed to the decode session,
    which cancels between row bands with
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
    if inflater.unused_data:
        raise FormatError(
            f"stored payload has {len(inflater.unused_data)} bytes after "
            "its Deflate stream"
        )


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
