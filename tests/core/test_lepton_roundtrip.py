"""End-to-end Lepton: compress → decompress byte-exactness and behaviour."""

import numpy as np
import pytest

from repro.core.format import read_container, write_container
from repro.core.lepton import (
    FORMAT_DEFLATE,
    FORMAT_LEPTON,
    LeptonConfig,
    compress,
    convert,
    decompress,
    decompress_chunks,
    roundtrip_check,
)
from repro.core.model import ModelConfig
from repro.corpus.builder import corpus_jpeg, degenerate_jpegs


@pytest.mark.parametrize("kwargs", [
    dict(height=64, width=64, quality=85),
    dict(height=64, width=64, quality=85, subsampling="4:4:4"),
    dict(height=48, width=56, quality=80, grayscale=True),
    dict(height=64, width=80, quality=85, restart_interval=3),
    dict(height=33, width=47, quality=85),
    dict(height=40, width=40, quality=30),
], ids=["420", "444", "gray", "rst", "odd", "lowq"])
def test_roundtrip_exact(kwargs):
    data = corpus_jpeg(seed=20, **kwargs)
    result = compress(data)
    assert result.ok
    assert result.format == FORMAT_LEPTON
    assert decompress(result.payload) == data


@pytest.mark.parametrize("threads", [1, 2, 4, 8])
def test_roundtrip_any_thread_count(small_jpeg, threads):
    result = compress(small_jpeg, LeptonConfig(threads=threads))
    assert result.ok
    assert decompress(result.payload) == small_jpeg


def test_degenerate_images_roundtrip():
    for item in degenerate_jpegs(seed=4):
        result = compress(item.data)
        assert result.ok, item.name
        assert decompress(result.payload) == item.data, item.name


class TestCompressionBehaviour:
    def test_achieves_real_savings(self):
        data = corpus_jpeg(seed=21, height=128, width=128, quality=85)
        result = compress(data)
        assert result.savings_fraction > 0.10
        assert result.compression_ratio < 0.90

    def test_single_thread_compresses_at_least_as_well(self):
        """§3.4: each thread's model restarts, so more threads cost bytes."""
        data = corpus_jpeg(seed=22, height=96, width=96, quality=85)
        one = compress(data, LeptonConfig(threads=1))
        four = compress(data, LeptonConfig(threads=4))
        assert one.output_size <= four.output_size

    def test_trailer_garbage_preserved(self, trailer_jpeg):
        result = compress(trailer_jpeg)
        assert result.ok
        assert decompress(result.payload) == trailer_jpeg

    def test_stats_populated(self, small_jpeg):
        result = compress(small_jpeg, LeptonConfig(collect_breakdown=True))
        stats = result.stats
        assert stats.input_size == len(small_jpeg)
        assert stats.output_size == result.output_size
        assert stats.thread_count >= 1
        assert set(stats.bit_costs) == {"nnz", "7x7", "edge", "dc"}
        assert stats.original_bits["header"] > 0
        assert stats.original_bits["7x7"] > 0

    @pytest.mark.parametrize("breakdown", [True, False])
    def test_a_chunked_encode_accounts_only_with_collect_breakdown(
            self, small_jpeg, breakdown):
        """``collect_breakdown`` is the one switch for both halves of the
        Figure-4 accounting, whatever the windows."""
        half = len(small_jpeg) // 2
        _code, _detail, stats, chunks = convert(
            small_jpeg, [(0, half), (half, len(small_jpeg))],
            LeptonConfig(collect_breakdown=breakdown))
        assert [c.format for c in chunks] == [FORMAT_LEPTON] * 2
        assert bool(stats.bit_costs) is breakdown
        assert bool(stats.original_bits) is breakdown

    def test_segment_count_matches_container(self, small_jpeg):
        result = compress(small_jpeg, LeptonConfig(threads=4))
        parsed = read_container(result.payload)
        assert len(parsed.segments) == result.stats.thread_count

    def test_deterministic_output(self, small_jpeg):
        a = compress(small_jpeg, LeptonConfig(threads=2)).payload
        b = compress(small_jpeg, LeptonConfig(threads=2)).payload
        assert a == b

    def test_ablation_configs_roundtrip(self, small_jpeg):
        for edge_mode, dc_mode in (("avg", "gradient"), ("lakhani", "median8"),
                                   ("avg", "packjpg")):
            config = LeptonConfig(model=ModelConfig(edge_mode=edge_mode,
                                                    dc_mode=dc_mode))
            result = compress(small_jpeg, config)
            assert result.ok
            assert decompress(result.payload,
                              model_config=config.model) == small_jpeg


class TestStreaming:
    def test_stream_concatenates_to_original(self, rst_jpeg):
        result = compress(rst_jpeg, LeptonConfig(threads=2))
        pieces = list(decompress_chunks([result.payload]))
        assert b"".join(pieces) == rst_jpeg
        assert len(pieces) > 2  # header, scan parts, trailer

    def test_first_piece_is_header_before_scan_decode(self, small_jpeg):
        """Time-to-first-byte: the header is yielded before any arithmetic
        decoding happens."""
        result = compress(small_jpeg)
        stream = decompress_chunks([result.payload])
        first = next(stream)
        assert small_jpeg.startswith(first)
        assert first.startswith(b"\xFF\xD8")

    def test_stream_works_sequentially(self, small_jpeg):
        result = compress(small_jpeg, LeptonConfig(threads=4))
        pieces = list(decompress_chunks([result.payload]))
        assert b"".join(pieces) == small_jpeg


class TestAdmission:
    def test_roundtrip_check_admits_good_file(self, small_jpeg):
        result = roundtrip_check(small_jpeg)
        assert result.ok
        assert result.format == FORMAT_LEPTON

    def test_roundtrip_check_falls_back_for_non_jpeg(self):
        data = b"not an image at all" * 100
        result = roundtrip_check(data)
        assert not result.ok
        assert result.format == FORMAT_DEFLATE
        assert decompress(result.payload) == data

    def test_fallback_disabled_returns_none_payload(self):
        result = compress(b"junk", LeptonConfig(deflate_fallback=False))
        assert result.payload is None
        assert not result.ok


class TestInterleave:
    @pytest.mark.parametrize("slice_size", [64, 256, 4096])
    def test_any_interleave_slice_roundtrips(self, rst_jpeg, slice_size):
        result = compress(rst_jpeg, LeptonConfig(threads=4))
        resliced = write_container(read_container(result.payload),
                                   interleave_slice=slice_size)
        assert decompress(resliced) == rst_jpeg
