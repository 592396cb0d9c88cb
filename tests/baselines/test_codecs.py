"""Comparator codecs: round trips, rejection behaviour, ratio ordering."""

import pytest

from repro.baselines import jpegrescan_like, mozjpeg_arith, packjpg_like, paq_like
from repro.baselines.registry import all_codecs, get_codec
from repro.corpus import corruptions
from repro.corpus.builder import corpus_jpeg


@pytest.fixture(scope="module")
def photo():
    return corpus_jpeg(seed=60, height=96, width=96, quality=85)


@pytest.fixture(scope="module")
def gray_photo():
    return corpus_jpeg(seed=61, height=64, width=64, grayscale=True)


class TestRegistry:
    def test_eleven_codecs_like_figure_2(self):
        assert len(all_codecs()) == 11

    def test_lookup_by_name(self):
        assert get_codec("lepton").name == "lepton"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_codec("middle-out")

    def test_jpeg_aware_flags(self):
        aware = {c.name for c in all_codecs() if c.jpeg_aware}
        assert aware == {"lepton", "lepton-1way", "packjpg", "paq8px",
                         "jpegrescan", "mozjpeg"}

    def test_substitutions_documented(self):
        subs = {c.name for c in all_codecs() if c.substitution_note}
        assert {"brotli", "lzham", "zstandard"} <= subs


@pytest.mark.parametrize("name", [c.name for c in all_codecs()])
def test_every_codec_roundtrips_jpeg(name, photo):
    codec = get_codec(name)
    assert codec.decompress(codec.compress(photo)) == photo


@pytest.mark.parametrize("name", ["lepton", "packjpg", "mozjpeg", "jpegrescan"])
def test_jpeg_aware_codecs_roundtrip_grayscale(name, gray_photo):
    codec = get_codec(name)
    assert codec.decompress(codec.compress(gray_photo)) == gray_photo


def test_rst_jpeg_roundtrips_through_jpeg_aware(photo):
    data = corpus_jpeg(seed=62, height=64, width=80, restart_interval=3)
    for name in ("lepton", "packjpg", "mozjpeg", "jpegrescan", "paq8px"):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data, name


class TestRatioOrdering:
    """The Figure 1/2 shape: model size buys compression."""

    @pytest.fixture(scope="class")
    def sizes(self, photo):
        return {
            c.name: len(c.compress(photo))
            for c in all_codecs()
        }

    def test_lepton_beats_small_bin_arithmetic(self, sizes):
        assert sizes["lepton"] < sizes["mozjpeg"]

    def test_lepton_beats_huffman_reoptimisation(self, sizes):
        assert sizes["lepton"] < sizes["jpegrescan"]

    def test_packjpg_matches_lepton_class(self, sizes):
        assert sizes["packjpg"] <= sizes["mozjpeg"]

    def test_jpeg_aware_beats_generic(self, sizes):
        best_generic = min(sizes[n] for n in ("deflate", "lzma", "zstandard"))
        assert sizes["lepton"] < best_generic

    def test_generic_codecs_barely_compress_the_scan(self, photo):
        """§2's point precisely: Deflate achieves ~nothing on the entropy-
        coded scan itself — whatever it saves comes from the header."""
        import zlib

        from repro.jpeg.parser import parse_jpeg

        scan = parse_jpeg(photo).scan_data
        assert len(zlib.compress(scan, 9)) > 0.97 * len(scan)


class TestPackJpgModes:
    def test_latest_mode_default(self, photo):
        payload = packjpg_like.compress(photo)
        assert packjpg_like.decompress(payload) == photo

    @pytest.mark.parametrize("mode", ["latest", "2007", "planar"])
    def test_all_modes_roundtrip(self, photo, mode):
        payload = packjpg_like.compress(photo, mode=mode)
        assert packjpg_like.decompress(payload) == photo

    def test_latest_beats_2007(self, photo):
        """Footnote 3: the current PackJPG outperforms the 2007 paper."""
        latest = len(packjpg_like.compress(photo, mode="latest"))
        y2007 = len(packjpg_like.compress(photo, mode="2007"))
        assert latest < y2007

    def test_invalid_mode_rejected(self, photo):
        with pytest.raises(ValueError):
            packjpg_like.compress(photo, mode="quantum")

    def test_rejects_progressive(self, photo):
        from repro.jpeg.errors import UnsupportedJpegError

        with pytest.raises(UnsupportedJpegError):
            packjpg_like.compress(corruptions.make_progressive(photo))


class TestPaqLike:
    def test_generic_path_for_non_jpeg(self):
        data = b"The quick brown fox jumps over the lazy dog. " * 40
        payload = paq_like.compress(data)
        assert payload[:2] == paq_like.MAGIC_GENERIC
        assert paq_like.decompress(payload) == data

    def test_generic_path_compresses_text(self):
        data = b"abcabcabc " * 300
        assert len(paq_like.compress(data)) < len(data) * 0.6

    def test_jpeg_path_used_for_jpegs(self, photo):
        assert paq_like.compress(photo)[:2] == paq_like.MAGIC_JPEG

    def test_mixer_output_valid_probability(self):
        mixer = paq_like.Mixer(3)
        p = mixer.mix([0.1, 0.5, 0.9])
        assert 0.0 < p < 1.0
        mixer.update(1, p)
        p2 = mixer.mix([0.1, 0.5, 0.9])
        assert p2 > p  # weights moved toward the observed bit

    def test_count_model_adapts(self):
        model = paq_like.CountModel()
        for _ in range(20):
            model.update("ctx", 1)
        assert model.predict("ctx") > 0.9


class TestJpegRescanLike:
    def test_optimised_tables_are_jpeg_legal(self, photo):
        from repro.jpeg.huffman import build_optimal_table
        from repro.jpeg.parser import parse_jpeg
        from repro.jpeg.scan_decode import decode_scan

        img = parse_jpeg(photo)
        decode_scan(img)
        dc_freq, ac_freq = jpegrescan_like._gather_symbol_stats(img)
        for freq in list(dc_freq.values()) + list(ac_freq.values()):
            assert build_optimal_table(freq).max_length <= 16

    def test_saves_bytes_vs_standard_tables(self, photo):
        assert len(jpegrescan_like.compress(photo)) < len(photo)

    def test_not_a_payload_rejected(self):
        from repro.core.errors import FormatError

        with pytest.raises(FormatError):
            jpegrescan_like.decompress(b"XXnothing")


class TestMozjpegArith:
    def test_band_grouping_covers_all_positions(self):
        assert len(mozjpeg_arith._BAND_OF) == 64
        assert set(mozjpeg_arith._BAND_OF) == {0, 1, 2, 3, 4}

    def test_small_bin_count(self, photo):
        """The defining property: a few hundred bins, not 721k."""
        from repro.core.bool_coder import BoolEncoder
        from repro.core.model import Model
        from repro.jpeg.parser import parse_jpeg
        from repro.jpeg.scan_decode import decode_scan

        img = parse_jpeg(photo)
        decode_scan(img)
        model = Model()
        mozjpeg_arith._code_image(BoolEncoder(), model.bins,
                                  img.frame, img.coefficients)
        assert model.bin_count < 2000

    def test_lepton_uses_far_more_bins(self, photo):
        """Lepton's context space dwarfs the spec-style coder's on the same
        input (721k vs ~300 in the paper; both lazily counted here)."""
        from repro.core.bool_coder import BoolEncoder
        from repro.core.lepton import LeptonConfig, compress
        from repro.core.model import Model
        from repro.jpeg.parser import parse_jpeg
        from repro.jpeg.scan_decode import decode_scan

        img = parse_jpeg(photo)
        decode_scan(img)
        moz_model = Model()
        mozjpeg_arith._code_image(BoolEncoder(), moz_model.bins,
                                  img.frame, img.coefficients)
        result = compress(photo, LeptonConfig(threads=1))
        assert result.stats.model_bins > 3 * moz_model.bin_count
