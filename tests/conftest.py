"""Shared fixtures: small deterministic JPEGs (cached per session)."""

import pytest

import repro.obs
from repro.corpus.builder import corpus_jpeg
from repro.corpus.images import synthetic_photo
from repro.jpeg.writer import encode_baseline_jpeg


@pytest.fixture(autouse=True)
def _reset_observability():
    """Each test gets a clean global registry and tracer (docs/observability.md)."""
    repro.obs.reset()
    yield
    repro.obs.reset()


@pytest.fixture(scope="session")
def small_jpeg() -> bytes:
    """64x64 colour 4:2:0 JPEG — the workhorse input."""
    return corpus_jpeg(seed=1, height=64, width=64, quality=85)


@pytest.fixture(scope="session")
def gray_jpeg() -> bytes:
    return corpus_jpeg(seed=2, height=48, width=56, quality=80, grayscale=True)


@pytest.fixture(scope="session")
def rst_jpeg() -> bytes:
    """JPEG with restart markers every 3 MCUs."""
    return corpus_jpeg(seed=3, height=64, width=80, quality=85, restart_interval=3)


@pytest.fixture(scope="session")
def odd_jpeg() -> bytes:
    """Odd dimensions + 4:2:0: exercises MCU padding."""
    pixels = synthetic_photo(37, 61, seed=4)
    return encode_baseline_jpeg(pixels, quality=85, subsampling="4:2:0")


@pytest.fixture(scope="session")
def trailer_jpeg() -> bytes:
    """JPEG with a comment segment and appended garbage (§A.3)."""
    pixels = synthetic_photo(40, 40, seed=5)
    return encode_baseline_jpeg(
        pixels, quality=85, comment=b"shot on a synthetic camera",
        trailer=b"\x00\x01TV-FORMAT-TRAILER" * 3,
    )


@pytest.fixture(scope="session")
def drifting_dc_jpeg() -> bytes:
    """A well-formed 631-byte baseline JPEG whose DC drifts past the
    arithmetic coder's range: block i's DC is ``min(i, 12) * 2000``, so
    every Huffman DC difference fits its category but the values exceed
    the exponent cap (§6.2 "AC values out of range")."""
    from repro.jpeg.parser import parse_jpeg
    from repro.jpeg.scan_decode import decode_scan
    from repro.jpeg.scan_encode import encode_scan

    img = parse_jpeg(corpus_jpeg(seed=3, height=64, width=64, grayscale=True))
    decode_scan(img)
    blocks = img.coefficients[0].reshape(-1, 64)
    for i in range(len(blocks)):
        blocks[i, 0] = min(i, 12) * 2000
    scan, _ = encode_scan(img)
    return img.header_bytes + scan + img.trailer_bytes
