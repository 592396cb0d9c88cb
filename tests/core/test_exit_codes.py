"""§6.2 exit-code classification and resource limits."""

import struct
import zlib

import pytest

from repro.core import session
from repro.core.chunks import CHUNK_SIZE, chunk_ranges
from repro.core.errors import ExitCode
from repro.core.lepton import (
    DECODE_MEMORY_LIMIT,
    ENCODE_MEMORY_LIMIT,
    FORMAT_DEFLATE,
    LeptonConfig,
    compress,
    decompress,
)
from repro.core.segments import MAX_THREADS
from repro.corpus import corruptions
from repro.corpus.builder import corpus_jpeg
from repro.jpeg.parser import parse_jpeg


@pytest.fixture(scope="module")
def base_jpeg():
    return corpus_jpeg(seed=40, height=64, width=64, quality=85)


@pytest.fixture(scope="module")
def photo_4mp():
    return corpus_jpeg(seed=1, height=2048, width=2048, quality=85)


def camera_frame(jpeg: bytes, height: int, width: int, size: int):
    """A parsed ``size``-byte JPEG with a ``width`` x ``height`` frame.

    The frame is rewritten in ``jpeg``'s SOF0 and its scan repeated to fill
    ``size`` bytes.  The memory estimates read only the frame and the byte
    counts, so no multi-megapixel photo has to be synthesised or decoded.
    """
    img = parse_jpeg(jpeg)
    sof = jpeg.index(b"\xff\xc0")
    header = (jpeg[:sof + 5] + struct.pack(">HH", height, width)
              + img.header_bytes[sof + 9:])
    scan_len = size - len(header) - 2
    scan = (img.scan_data * (scan_len // len(img.scan_data) + 1))[:scan_len]
    return parse_jpeg(header + scan + b"\xff\xd9")


def largest_window_scan(img) -> int:
    """Scan bytes of a file's largest 4-MiB chunk, as a store read holds."""
    header, scan = len(img.header_bytes), len(img.scan_data)
    return max(max(0, min(b, header + scan) - max(a, header))
               for a, b in chunk_ranges(img.total_size))


class TestClassification:
    def test_success(self, base_jpeg):
        assert compress(base_jpeg).exit_code is ExitCode.SUCCESS

    def test_progressive(self, base_jpeg):
        result = compress(corruptions.make_progressive(base_jpeg))
        assert result.exit_code is ExitCode.PROGRESSIVE

    def test_arithmetic_coded_unsupported(self, base_jpeg):
        result = compress(corruptions.make_arithmetic(base_jpeg))
        assert result.exit_code is ExitCode.UNSUPPORTED_JPEG

    def test_cmyk(self):
        assert compress(corruptions.make_cmyk()).exit_code is ExitCode.CMYK

    def test_not_an_image_random_bytes_with_soi(self):
        result = compress(corruptions.not_an_image(seed=1))
        assert result.exit_code is ExitCode.NOT_AN_IMAGE

    def test_not_an_image_no_soi(self):
        result = compress(b"hello world, definitely text")
        assert result.exit_code is ExitCode.NOT_AN_IMAGE

    def test_header_only_unsupported(self, base_jpeg):
        result = compress(corruptions.make_header_only(base_jpeg))
        assert result.exit_code in (ExitCode.UNSUPPORTED_JPEG, ExitCode.NOT_AN_IMAGE)

    def test_truncated_unsupported(self, base_jpeg):
        result = compress(corruptions.truncate(base_jpeg, 0.5))
        assert result.exit_code is not ExitCode.SUCCESS

    def test_big_sampling_factors(self, base_jpeg):
        idx = base_jpeg.find(bytes([0xFF, 0xC0]))
        data = bytearray(base_jpeg)
        data[idx + 11] = 0x33
        result = compress(bytes(data))
        assert result.exit_code is ExitCode.CHROMA_SUBSAMPLE_BIG


class TestFallback:
    def test_rejects_stored_as_deflate(self, base_jpeg):
        data = corruptions.make_progressive(base_jpeg)
        result = compress(data)
        assert result.format == FORMAT_DEFLATE
        assert decompress(result.payload) == data

    def test_fallback_payload_is_plain_zlib(self):
        result = compress(b"some text")
        assert zlib.decompress(result.payload) == b"some text"

    def test_detail_explains_rejection(self, base_jpeg):
        result = compress(corruptions.make_progressive(base_jpeg))
        assert "progressive" in result.detail.lower()


class TestResourceLimits:
    def test_decode_memory_limit(self, base_jpeg):
        config = LeptonConfig(decode_memory_limit=1024)
        result = compress(base_jpeg, config)
        assert result.exit_code is ExitCode.DECODE_MEMORY_EXCEEDED
        assert result.format == FORMAT_DEFLATE

    def test_encode_memory_limit(self, base_jpeg):
        config = LeptonConfig(decode_memory_limit=None, encode_memory_limit=1024)
        result = compress(base_jpeg, config)
        assert result.exit_code is ExitCode.ENCODE_MEMORY_EXCEEDED

    def test_estimates_of_a_4mp_photo_fit(self, photo_4mp):
        img = parse_jpeg(photo_4mp)
        assert (session.estimate_decode_memory(img, len(img.scan_data))
                < DECODE_MEMORY_LIMIT // 8)
        assert (session.estimate_encode_memory(img, MAX_THREADS)
                < ENCODE_MEMORY_LIMIT)

    @pytest.mark.parametrize("height,width,mib", [
        (3000, 4000, 4), (4000, 6000, 8), (6000, 8000, 12)])
    def test_decode_estimate_of_a_multi_chunk_photo_fits(self, base_jpeg,
                                                         height, width, mib):
        img = camera_frame(base_jpeg, height, width, mib << 20)
        needed = session.estimate_decode_memory(img, largest_window_scan(img))
        assert largest_window_scan(img) <= CHUNK_SIZE
        assert needed < DECODE_MEMORY_LIMIT // 2

    @pytest.mark.parametrize("height,width,mib", [(3000, 4000, 4), (4000, 6000, 8)])
    def test_encode_estimate_of_a_camera_photo_fits(self, base_jpeg,
                                                    height, width, mib):
        img = camera_frame(base_jpeg, height, width, mib << 20)
        assert session.estimate_encode_memory(img, MAX_THREADS) < ENCODE_MEMORY_LIMIT

    def test_decode_estimate_grows_with_width_not_height(self, base_jpeg):
        def needed(height, width):
            return session.estimate_decode_memory(
                camera_frame(base_jpeg, height, width, 1 << 20), 0)
        assert needed(4000, 3000) == needed(8000, 3000)
        assert needed(4000, 6000) > needed(4000, 3000)

    @pytest.mark.parametrize("subsampling,grayscale", [
        ("4:2:0", False), ("4:4:4", False), ("4:2:0", True)])
    def test_decode_estimate_charges_the_row_windows_a_decode_holds(
            self, monkeypatch, subsampling, grayscale):
        data = corpus_jpeg(seed=41, height=40, width=72, quality=85,
                           subsampling=subsampling, grayscale=grayscale)
        result = compress(data, LeptonConfig(threads=2))
        assert result.ok and len(result.stats.segment_sizes) == 2
        held = []

        class RecordingWindow(session.RowWindow):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                held.append(self.retained_rows * self.shape[1])

        monkeypatch.setattr(session, "RowWindow", RecordingWindow)
        assert decompress(result.payload) == data
        components = 1 if grayscale else 3
        assert len(held) == 2 * components  # one window set per segment
        img = parse_jpeg(data)
        estimated = session.estimate_decode_memory(img, 0) - session.MODEL_BYTES
        assert estimated == sum(held[:components]) * session.BLOCK_BYTES

    def test_production_limits_pass_small_files(self, base_jpeg):
        result = compress(base_jpeg, LeptonConfig())  # 24 MiB / 178 MiB
        assert result.ok

    def test_timeout(self, base_jpeg):
        config = LeptonConfig(timeout_seconds=0.0)
        result = compress(base_jpeg, config)
        assert result.exit_code is ExitCode.TIMEOUT

    def test_no_timeout_by_default(self, base_jpeg):
        assert compress(base_jpeg).exit_code is ExitCode.SUCCESS


class TestExitCodeEnum:
    def test_paper_labels(self):
        assert ExitCode.DECODE_MEMORY_EXCEEDED.value == ">24 MiB mem decode"
        assert ExitCode.ROUNDTRIP_FAILED.value == "Roundtrip failed"

    def test_only_success_is_success(self):
        assert ExitCode.SUCCESS.is_success
        assert sum(1 for c in ExitCode if c.is_success) == 1
