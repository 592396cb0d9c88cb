"""Row-bounded streaming decode: correctness and memory discipline (§1)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.chunks import compress_chunked
from repro.core.decoder import decode_lepton_bounded
from repro.core.lepton import LeptonConfig, compress, decompress_chunks
from repro.core.rowbuffer import RowWindow, RowWindowError
from repro.corpus.builder import corpus_jpeg


class TestRowWindow:
    def test_basic_read_write(self):
        window = RowWindow(10, 4, window=3)
        window[0, 1] = np.arange(64)
        assert np.array_equal(window[0, 1], np.arange(64))

    def test_view_writes_stick(self):
        window = RowWindow(10, 4, window=3)
        view = window[1, 2]
        view[5] = 42
        assert window[1, 2][5] == 42

    def test_release_slides_window(self):
        window = RowWindow(10, 4, window=3)
        window[2, 0] = np.ones(64)
        window.release_below(2)
        window[4, 0] = np.ones(64)  # rows 2..4 now valid
        with pytest.raises(RowWindowError):
            window[1, 0]

    def test_released_rows_are_zeroed_on_reuse(self):
        window = RowWindow(10, 4, window=2)
        window[0, 0] = np.full(64, 7)
        window.release_below(1)
        # Row 2 reuses row 0's slot; it must read back as zeros.
        assert not window[2, 0].any()

    def test_access_past_window_fails_loudly(self):
        window = RowWindow(10, 4, window=2)
        with pytest.raises(RowWindowError):
            window[5, 0]

    def test_access_past_image_fails(self):
        window = RowWindow(3, 4, window=3)
        with pytest.raises(RowWindowError):
            window[3, 0]

    def test_shape_mimics_full_array(self):
        assert RowWindow(7, 5, window=4).shape == (7, 5, 64)

    def test_window_capped_at_image_height(self):
        assert RowWindow(2, 4, window=8).retained_rows == 2

    def test_minimum_window(self):
        with pytest.raises(ValueError):
            RowWindow(10, 4, window=1)

    def test_nbytes_reflects_window_not_image(self):
        small = RowWindow(1000, 8, window=4)
        assert small.nbytes == 4 * 8 * 64 * 4


@pytest.mark.parametrize("kwargs", [
    dict(height=96, width=128, quality=85),
    dict(height=64, width=80, quality=85, restart_interval=3),
    dict(height=48, width=56, grayscale=True),
    dict(height=37, width=61, quality=85),
], ids=["420", "rst", "gray", "odd"])
@pytest.mark.parametrize("threads", [1, 3])
def test_bounded_decode_byte_exact(kwargs, threads):
    data = corpus_jpeg(seed=95, **kwargs)
    payload = compress(data, LeptonConfig(threads=threads)).payload
    assert b"".join(decode_lepton_bounded(payload)) == data


def test_bounded_decode_of_chunk_containers():
    data = corpus_jpeg(seed=96, height=96, width=128, quality=85)
    chunks = compress_chunked(data, 600, LeptonConfig(threads=2))
    for chunk in chunks:
        a, b = chunk.original_range
        assert b"".join(decode_lepton_bounded(chunk.payload)) == data[a:b]


def test_bounded_matches_regular_decode():
    from repro.core.lepton import decompress

    data = corpus_jpeg(seed=97, height=64, width=96, restart_interval=4)
    payload = compress(data, LeptonConfig(threads=2)).payload
    assert b"".join(decode_lepton_bounded(payload)) == decompress(payload)


def test_decompress_bounded_handles_deflate_fallback():
    """The bounded streaming decode (``decompress_chunks``) inflates a
    Deflate-fallback payload too."""
    blob = b"not a jpeg" * 50
    result = compress(blob)
    assert b"".join(decompress_chunks([result.payload])) == blob


def test_working_set_scales_with_width_not_height():
    """The paper's memory claim: row-by-row decode keeps the working set
    roughly fixed as the image grows taller."""
    def peak(height):
        data = corpus_jpeg(seed=98, height=height, width=64, quality=85,
                           grayscale=True)
        payload = compress(data, LeptonConfig(threads=1)).payload
        tracemalloc.start()
        out = b"".join(decode_lepton_bounded(payload))
        _, pk = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(out) == len(data)
        return pk

    short, tall = peak(64), peak(256)
    # 4x the pixels must cost far less than 4x the memory (model bins and
    # the nnz grid still grow slowly with content).
    assert tall < short * 2.5


def test_bounded_yields_per_row_pieces():
    data = corpus_jpeg(seed=99, height=96, width=96, quality=85)
    payload = compress(data, LeptonConfig(threads=1)).payload
    pieces = list(decode_lepton_bounded(payload))
    # header + one piece per MCU row (some may be empty-trimmed) ≥ 4
    assert len(pieces) >= 4
    assert b"".join(pieces) == data
