"""Optional 4-component (CMYK) support — §6.2's intentionally-disabled path."""

import numpy as np
import pytest

from repro.core.chunks import compress_chunked, decompress_chunk
from repro.core.errors import ExitCode
from repro.core.lepton import (
    FORMAT_DEFLATE,
    FORMAT_LEPTON,
    LeptonConfig,
    compress,
    decompress,
)
from repro.corpus.images import synthetic_photo
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan
from repro.jpeg.scan_encode import encode_scan
from repro.jpeg.writer import encode_baseline_jpeg


@pytest.fixture(scope="module")
def cmyk_jpeg() -> bytes:
    rgb = synthetic_photo(48, 64, seed=11)
    k = np.clip(255 - rgb.mean(axis=2, keepdims=True) * 0.5, 0, 255)
    cmyk = np.concatenate([rgb, k.astype(np.uint8)], axis=2)
    return encode_baseline_jpeg(cmyk, quality=85)


class TestParsing:
    def test_default_parse_rejects(self, cmyk_jpeg):
        from repro.jpeg.errors import UnsupportedJpegError

        with pytest.raises(UnsupportedJpegError) as exc:
            parse_jpeg(cmyk_jpeg)
        assert exc.value.reason == "cmyk"

    def test_extended_parse_accepts(self, cmyk_jpeg):
        img = parse_jpeg(cmyk_jpeg, max_components=4)
        assert len(img.frame.components) == 4

    def test_scan_roundtrips_byte_exactly(self, cmyk_jpeg):
        img = parse_jpeg(cmyk_jpeg, max_components=4)
        decode_scan(img)
        scan, _ = encode_scan(img)
        assert scan == img.scan_data

    def test_five_components_still_rejected(self, cmyk_jpeg):
        idx = cmyk_jpeg.find(bytes([0xFF, 0xC0]))
        patched = bytearray(cmyk_jpeg)
        patched[idx + 9] = 5
        from repro.jpeg.errors import JpegError

        with pytest.raises(JpegError):
            parse_jpeg(bytes(patched), max_components=4)


class TestLepton:
    def test_production_config_rejects_with_cmyk_code(self, cmyk_jpeg):
        result = compress(cmyk_jpeg)
        assert result.exit_code is ExitCode.CMYK
        assert result.format == FORMAT_DEFLATE
        assert decompress(result.payload) == cmyk_jpeg

    def test_extended_config_compresses(self, cmyk_jpeg):
        result = compress(cmyk_jpeg, LeptonConfig(allow_cmyk=True, threads=1))
        assert result.ok
        assert result.format == FORMAT_LEPTON
        assert result.savings_fraction > 0.02
        assert decompress(result.payload) == cmyk_jpeg

    def test_multithreaded_cmyk(self, cmyk_jpeg):
        result = compress(cmyk_jpeg, LeptonConfig(allow_cmyk=True, threads=4))
        assert result.ok
        assert decompress(result.payload) == cmyk_jpeg

    def test_handover_carries_four_dc_channels(self, cmyk_jpeg):
        from repro.core.format import read_container

        result = compress(cmyk_jpeg, LeptonConfig(allow_cmyk=True, threads=2))
        parsed = read_container(result.payload)
        assert all(len(s.handover.dc_pred) == 4 for s in parsed.segments)

    def test_chunked_cmyk(self, cmyk_jpeg):
        chunks = compress_chunked(cmyk_jpeg, 600,
                                  LeptonConfig(allow_cmyk=True, threads=1))
        assert all(c.format == FORMAT_LEPTON for c in chunks)
        for chunk in chunks:
            a, b = chunk.original_range
            assert decompress_chunk(chunk) == cmyk_jpeg[a:b]

    def test_chunked_cmyk_without_flag_falls_back(self, cmyk_jpeg):
        chunks = compress_chunked(cmyk_jpeg, 600, LeptonConfig())
        assert all(c.format == FORMAT_DEFLATE for c in chunks)

    def test_bounded_decode_cmyk(self, cmyk_jpeg):
        from repro.core.lepton import decompress_chunks

        result = compress(cmyk_jpeg, LeptonConfig(allow_cmyk=True, threads=2))
        assert b"".join(decompress_chunks([result.payload])) == cmyk_jpeg
