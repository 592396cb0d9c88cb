"""The streaming CodecSession contract (repro.core.session).

Three guarantees the session design exists to make structural:

* every decode entry point is the *same* pipeline — over a corruption
  corpus they must agree byte-for-byte on success and exception-type on
  failure;
* the session streams: output begins before the final input chunk is
  consumed, observable through the `lepton.session.decode.*` telemetry;
* the bare `EncodeSession` the figure benches time rejects exactly what
  `compress` rejects (an old timed fork silently dropped the CMYK policy,
  the memory budgets, and the deadline).
"""

import random
import time
import tracemalloc

import pytest

from repro.core.chunks import StoredChunk, decompress_chunk
from repro.core.errors import (
    ExitCode,
    FormatError,
    LeptonError,
    MemoryLimitExceeded,
    TimeoutExceeded,
    VersionError,
)
from repro.core.format import MAGIC
from repro.core.lepton import (
    FORMAT_DEFLATE,
    FORMAT_LEPTON,
    LeptonConfig,
    compress,
    decompress,
    decompress_chunks,
)
from repro.core.session import EncodeSession
from repro.corpus.builder import corpus_jpeg
from repro.corpus.images import synthetic_photo
from repro.jpeg.errors import JpegError
from repro.jpeg.writer import encode_baseline_jpeg
from repro.obs import get_registry


@pytest.fixture(scope="module")
def cmyk_jpeg() -> bytes:
    import numpy as np

    rgb = synthetic_photo(48, 64, seed=11)
    k = np.clip(255 - rgb.mean(axis=2, keepdims=True) * 0.5, 0, 255)
    cmyk = np.concatenate([rgb, k.astype(np.uint8)], axis=2)
    return encode_baseline_jpeg(cmyk, quality=85)

ACCEPTABLE = (LeptonError, FormatError, VersionError, JpegError,
              ValueError, KeyError)


@pytest.fixture(scope="module")
def photo_payload():
    data = corpus_jpeg(seed=37, height=64, width=96)
    return data, compress(data, LeptonConfig(threads=2)).payload


def _outcome(decoder, payload):
    """(kind, value): decoded bytes, or the exception type's name."""
    try:
        return "data", decoder(payload)
    except ACCEPTABLE as exc:
        return "error", type(exc).__name__


@pytest.fixture(scope="module")
def deflate_payload():
    data = b"not a jpeg, stored as Deflate " * 40
    result = compress(data)
    assert result.format == FORMAT_DEFLATE
    return data, result.payload


def _stored_chunk(payload):
    fmt = FORMAT_LEPTON if payload[:2] == MAGIC else FORMAT_DEFLATE
    return StoredChunk(0, fmt, payload, (0, 0))


DECODERS = {
    "decompress": lambda p: decompress(p),
    "decompress_sequential": lambda p: decompress(p, parallel=False),
    "decompress_deadline": lambda p: decompress(
        p, deadline=time.monotonic() + 3600),
    "decompress_chunks": lambda p: b"".join(
        decompress_chunks([p[i:i + 97] for i in range(0, len(p), 97)] or [p])
    ),
    "decompress_chunk": lambda p: decompress_chunk(_stored_chunk(p)),
}


class TestEntryPointEquivalence:
    """All decode surfaces are adapters over one session: they cannot
    disagree — not on good input, and not on any corruption."""

    def _assert_agree(self, payload):
        outcomes = {name: _outcome(fn, payload) for name, fn in DECODERS.items()}
        kinds = {k for k, _ in outcomes.values()}
        assert len(kinds) == 1, f"entry points diverged: {outcomes}"
        if kinds == {"data"}:
            values = {v for _, v in outcomes.values()}
            assert len(values) == 1, "entry points decoded different bytes"

    def test_intact_payload(self, photo_payload):
        data, payload = photo_payload
        for name, fn in DECODERS.items():
            assert fn(payload) == data, name

    def test_truncations(self, photo_payload):
        _, payload = photo_payload
        for cut in range(2, len(payload), max(1, len(payload) // 25)):
            self._assert_agree(payload[:cut])

    def test_bit_flips(self, photo_payload):
        _, payload = photo_payload
        rng = random.Random(11)
        for _ in range(40):
            pos = rng.randrange(2, len(payload))  # keep the magic: every
            mutated = bytearray(payload)          # surface stays on the
            mutated[pos] ^= 1 << rng.randrange(8)  # Lepton path
            self._assert_agree(bytes(mutated))

    def test_structured_garbage(self, photo_payload):
        _, payload = photo_payload
        for blob in (payload[:2], payload[:27], payload[:28],
                     payload + b"\x00\x00\x00\x00\x00",
                     payload[:40] + payload[60:]):
            self._assert_agree(blob)

    def test_deflate_intact_payload(self, deflate_payload):
        data, payload = deflate_payload
        for name, fn in DECODERS.items():
            assert fn(payload) == data, name

    def test_deflate_truncations(self, deflate_payload):
        _, payload = deflate_payload
        for cut in range(0, len(payload), max(1, len(payload) // 25)):
            self._assert_agree(payload[:cut])
            assert _outcome(DECODERS["decompress"], payload[:cut]) == (
                "error", "FormatError")

    def test_deflate_trailing_bytes_rejected(self, deflate_payload):
        """zlib keeps bytes after the end of its stream in
        ``unused_data``; a stored payload is exact, so they mean damage,
        the same as trailing bytes after a Lepton container."""
        _, payload = deflate_payload
        for tail in (b"x", b"\x00" * 7, payload):
            for name, fn in DECODERS.items():
                assert _outcome(fn, payload + tail) == (
                    "error", "FormatError"), name


def test_bounded_decode_peak_scales_with_width_not_area():
    """Consume-and-discard decode: 4x the pixels, same traced peak.

    Stricter than the joined-output variant in test_bounded_decode.py —
    nothing but the session's own working set (row windows, model bins,
    one row band of output) is alive during the measurement.
    """
    def peak(height):
        data = corpus_jpeg(seed=98, height=height, width=64, quality=85,
                           grayscale=True)
        payload = compress(data, LeptonConfig(threads=1)).payload
        consumed = 0
        tracemalloc.start()
        for piece in decompress_chunks([payload]):
            consumed += len(piece)
        _, pk = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert consumed == len(data)
        return pk

    short, tall = peak(64), peak(256)
    assert tall < short * 2.0


class TestStreaming:
    def test_first_output_before_last_input(self, photo_payload):
        """The acceptance criterion: a decode session emits its first
        output chunk before consuming the final input chunk."""
        data, payload = photo_payload
        chunks = [payload[i:i + 64] for i in range(0, len(payload), 64)]
        assert len(chunks) > 3
        from repro.core.session import DecodeSession

        session = DecodeSession()
        out = []
        fed_when_first_piece = None
        for fed, chunk in enumerate(chunks, start=1):
            for piece in session.write(chunk):
                if piece and fed_when_first_piece is None:
                    fed_when_first_piece = fed
                out.append(piece)
        out.extend(session.finish())
        assert b"".join(out) == data
        assert fed_when_first_piece is not None
        assert fed_when_first_piece < len(chunks)

    def test_session_telemetry(self, photo_payload):
        data, payload = photo_payload
        registry = get_registry()
        before_in = registry.counter("lepton.session.decode.bytes_in").value
        before_out = registry.counter("lepton.session.decode.bytes_out").value
        assert b"".join(decompress_chunks([payload])) == data
        assert (registry.counter("lepton.session.decode.bytes_in").value
                - before_in) == len(payload)
        assert (registry.counter("lepton.session.decode.bytes_out").value
                - before_out) == len(data)
        ttfb = registry.histogram("lepton.session.decode.ttfb_seconds")
        assert ttfb.count >= 1


def _session_encode(data: bytes, **kwargs) -> bytes:
    """Drive a bare session the way the fig. 8 bench times one."""
    session = EncodeSession(**kwargs)
    session.write(data)
    return b"".join(session.finish())


class TestTimedEncodeParity:
    """The figure benches time a bare ``EncodeSession``; it enforces the
    same policy as ``compress``, which drives the same session."""

    def test_cmyk_rejected_identically(self, cmyk_jpeg):
        with pytest.raises(JpegError) as raised:
            _session_encode(cmyk_jpeg)
        result = compress(cmyk_jpeg, LeptonConfig(deflate_fallback=False))
        assert result.format is None
        assert result.detail == str(raised.value)

    def test_cmyk_allowed_identically(self, cmyk_jpeg):
        payload = _session_encode(cmyk_jpeg, allow_cmyk=True)
        assert compress(cmyk_jpeg, LeptonConfig(allow_cmyk=True)).payload \
            == payload
        assert decompress(payload) == cmyk_jpeg

    def test_decode_memory_limit_enforced_identically(self):
        data = corpus_jpeg(seed=5, height=64, width=64)
        with pytest.raises(MemoryLimitExceeded):
            _session_encode(data, decode_memory_limit=1024)
        result = compress(data, LeptonConfig(decode_memory_limit=1024))
        assert result.exit_code is ExitCode.DECODE_MEMORY_EXCEEDED

    def test_encode_memory_limit_enforced_identically(self):
        data = corpus_jpeg(seed=5, height=64, width=64)
        with pytest.raises(MemoryLimitExceeded):
            _session_encode(data, encode_memory_limit=1024)
        result = compress(data, LeptonConfig(encode_memory_limit=1024))
        assert result.exit_code is ExitCode.ENCODE_MEMORY_EXCEEDED

    def test_deadline_enforced_identically(self):
        data = corpus_jpeg(seed=5, height=64, width=64)
        with pytest.raises(TimeoutExceeded):
            _session_encode(data, deadline=-1.0)
        result = compress(data, LeptonConfig(timeout_seconds=-1.0))
        assert result.exit_code is ExitCode.TIMEOUT


def test_session_modules_are_in_lint_scope():
    """The containment rule must cover the module it protects and the
    session must sit inside the determinism scopes."""
    from repro.lint.config import default_config

    config = default_config()
    for rule in ("D2", "D5", "D6"):
        assert config.in_scope(rule, "repro.core.session"), rule
    for module in ("repro.core.chunks", "repro.core.lepton", "repro.cli",
                   "repro.storage.blockstore"):
        assert config.in_scope("D6", module), module
    # The baseline coders legitimately own their loops.
    assert not config.in_scope("D6", "repro.baselines.packjpg_like")
