"""Decoder internals: parallel/sequential equivalence, metadata, edges."""

import pytest

from repro.core.format import read_container, write_container
from repro.core.errors import FormatError
from repro.core.lepton import (
    FORMAT_DEFLATE,
    FORMAT_LEPTON,
    LeptonConfig,
    compress,
    decompress,
    decompress_chunks,
)
from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry


class TestParallelEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_parallel_matches_sequential(self, seed):
        data = corpus_jpeg(seed=200 + seed, height=80, width=96,
                           restart_interval=(seed % 2) * 3)
        payload = compress(data, LeptonConfig(threads=4)).payload
        assert decompress(payload, parallel=True) == \
            decompress(payload, parallel=False) == data

    def test_stream_piece_boundaries_independent_of_parallelism(self):
        data = corpus_jpeg(seed=210, height=64, width=64)
        payload = compress(data, LeptonConfig(threads=2)).payload
        seq = list(decompress_chunks([payload], parallel=False))
        par = list(decompress_chunks([payload], parallel=True))
        assert b"".join(seq) == b"".join(par) == data


def _decompress_count(fmt):
    return get_registry().counter("lepton.decompress.count", format=fmt).value


class TestDecompressResult:
    """``decompress`` records each decode's format and time."""

    def test_lepton_metadata(self):
        data = corpus_jpeg(seed=220, height=48, width=48)
        payload = compress(data).payload
        assert decompress(payload) == data
        assert _decompress_count(FORMAT_LEPTON) == 1
        assert _decompress_count(FORMAT_DEFLATE) == 0
        seconds = get_registry().histogram("lepton.decompress.seconds")
        assert seconds.count == 1 and seconds.total > 0

    def test_deflate_metadata(self):
        result_c = compress(b"plain bytes " * 10)
        assert decompress(result_c.payload) == b"plain bytes " * 10
        assert _decompress_count(FORMAT_DEFLATE) == 1
        assert _decompress_count(FORMAT_LEPTON) == 0


class TestContainerEdges:
    def test_prefix_slice_out_of_bounds_detected(self):
        data = corpus_jpeg(seed=230, height=48, width=48)
        payload = compress(data, LeptonConfig(threads=1)).payload
        lepton = read_container(payload)
        lepton.prefix_length = len(lepton.jpeg_header) + 50
        # output_size no longer matches what the window can produce.
        with pytest.raises(FormatError):
            decompress(write_container(lepton))

    def test_wrong_output_size_detected(self):
        data = corpus_jpeg(seed=231, height=48, width=48)
        payload = compress(data, LeptonConfig(threads=1)).payload
        lepton = read_container(payload)
        lepton.output_size += 1
        with pytest.raises(FormatError):
            decompress(write_container(lepton))

    def test_wrong_scan_take_detected(self):
        data = corpus_jpeg(seed=232, height=48, width=48)
        payload = compress(data, LeptonConfig(threads=1)).payload
        lepton = read_container(payload)
        lepton.scan_take += 5
        with pytest.raises(FormatError):
            decompress(write_container(lepton))

    def test_rewritten_container_still_decodes(self):
        """read → write → read is lossless (format stability)."""
        data = corpus_jpeg(seed=233, height=64, width=64, restart_interval=2)
        payload = compress(data, LeptonConfig(threads=2)).payload
        rewritten = write_container(read_container(payload))
        assert decompress(rewritten) == data

    def test_tiny_interleave_slice_roundtrips(self):
        data = corpus_jpeg(seed=234, height=64, width=64)
        payload = compress(data, LeptonConfig(threads=4)).payload
        resliced = write_container(read_container(payload), interleave_slice=1)
        assert resliced != payload
        assert decompress(resliced) == data
