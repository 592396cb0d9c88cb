"""Coefficient coding: value codes, counters, and segment codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.coefcoder import SegmentCodec
from repro.core.errors import ValueOutOfRange
from repro.core.model import Model, ModelConfig
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan

KEY = 7 << 8


def _roundtrip_values(values, max_exp=14):
    enc = BoolEncoder()
    bins = Model().bins
    for v in values:
        enc.code_value(bins, KEY, v, max_exp)
    dec = BoolDecoder(enc.finish())
    bins = Model().bins
    return [dec.code_value(bins, KEY, 0, max_exp) for _ in values]


class TestCodeValue:
    def test_zero(self):
        assert _roundtrip_values([0]) == [0]

    def test_small_values(self):
        values = [0, 1, -1, 2, -2, 3, -3]
        assert _roundtrip_values(values) == values

    def test_extremes(self):
        values = [1023, -1023, 4095, -4095, (1 << 13) - 1, -((1 << 13) - 1)]
        assert _roundtrip_values(values) == values

    def test_max_exponent_boundary(self):
        """Values whose exponent equals the cap omit the terminator bit."""
        values = [(1 << 13), (1 << 14) - 1, -(1 << 13)]
        assert _roundtrip_values(values, max_exp=14) == values

    def test_over_cap_raises(self):
        with pytest.raises(ValueOutOfRange):
            _roundtrip_values([1 << 14], max_exp=14)

    def test_mixed_sequence_with_adaptation(self):
        values = [3, 3, 3, 3, -3, 7, 0, 0, 0, 12, -120, 1]
        assert _roundtrip_values(values) == values

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-4000, 4000), max_size=80))
    def test_roundtrip_property(self, values):
        assert _roundtrip_values(values) == values


class TestCodeCounter:
    @pytest.mark.parametrize("value", [0, 1, 31, 49, 63])
    def test_six_bit_counter(self, value):
        enc = BoolEncoder()
        enc.code_counter(Model().bins, KEY, 6, value)
        dec = BoolDecoder(enc.finish())
        assert dec.code_counter(Model().bins, KEY, 6, 0) == value

    def test_tree_contexts_distinct_per_prefix(self):
        model = Model()
        BoolEncoder().code_counter(model.bins, KEY, 3, 0b101)
        # Bits at positions 2,1,0 with prefixes (0, 1, 0b10) → 3 bins.
        assert model.bin_count == 3


def _random_coefficients(frame, seed, sparsity=0.8):
    """Plausible random coefficient arrays for a frame."""
    rng = np.random.default_rng(seed)
    arrays = []
    for comp in frame.components:
        arr = rng.integers(-60, 60, (comp.blocks_h, comp.blocks_w, 64))
        mask = rng.random(arr.shape) < sparsity
        arr[mask] = 0
        arr[:, :, 0] = rng.integers(-300, 300, (comp.blocks_h, comp.blocks_w))
        arrays.append(arr.astype(np.int32))
    return arrays


class TestSegmentCodec:
    @pytest.fixture(scope="class")
    def parsed(self, small_jpeg):
        img = parse_jpeg(small_jpeg)
        decode_scan(img)
        return img

    def _roundtrip(self, img, coefficients, mcu_start, mcu_end, config=None):
        config = config or ModelConfig()
        enc = BoolEncoder()
        SegmentCodec(img.frame, img.quant_tables, coefficients, config).encode(
            enc, mcu_start, mcu_end
        )
        out = [np.zeros_like(c) for c in coefficients]
        SegmentCodec(img.frame, img.quant_tables, out, config).decode(
            BoolDecoder(enc.finish()), mcu_start, mcu_end
        )
        return out

    def test_real_coefficients_roundtrip(self, parsed):
        out = self._roundtrip(parsed, parsed.coefficients, 0, parsed.frame.mcu_count)
        for got, want in zip(out, parsed.coefficients):
            assert np.array_equal(got, want)

    def test_random_coefficients_roundtrip(self, parsed):
        coeffs = _random_coefficients(parsed.frame, seed=5)
        out = self._roundtrip(parsed, coeffs, 0, parsed.frame.mcu_count)
        for got, want in zip(out, coeffs):
            assert np.array_equal(got, want)

    def test_partial_range_decodes_only_that_range(self, parsed):
        frame = parsed.frame
        half = (frame.mcus_y // 2) * frame.mcus_x
        out = self._roundtrip(parsed, parsed.coefficients, half, frame.mcu_count)
        luma_rows = (frame.mcus_y // 2) * frame.components[0].v
        assert np.array_equal(
            out[0][luma_rows:], parsed.coefficients[0][luma_rows:]
        )
        assert not out[0][:luma_rows].any()  # untouched region stays zero

    def test_segment_decode_without_earlier_segment(self, parsed):
        """A later segment must decode standalone: its model and contexts
        must not depend on segment-0 data (the multithreading invariant)."""
        frame = parsed.frame
        half = (frame.mcus_y // 2) * frame.mcus_x
        enc = BoolEncoder()
        SegmentCodec(frame, parsed.quant_tables, parsed.coefficients).encode(
            enc, half, frame.mcu_count
        )
        # Decoder sees ONLY zeros for segment 0's rows.
        out = [np.zeros_like(c) for c in parsed.coefficients]
        SegmentCodec(frame, parsed.quant_tables, out).decode(
            BoolDecoder(enc.finish()), half, frame.mcu_count
        )
        luma_rows = (frame.mcus_y // 2) * frame.components[0].v
        assert np.array_equal(out[0][luma_rows:], parsed.coefficients[0][luma_rows:])

    def test_mid_row_start_roundtrip(self, parsed):
        """Chunk boundaries can start a segment mid-MCU-row."""
        frame = parsed.frame
        start = frame.mcus_x + frame.mcus_x // 2  # middle of row 1
        out = self._roundtrip(parsed, parsed.coefficients, start, frame.mcu_count)
        for ci, comp in enumerate(frame.components):
            factor = comp.v if frame.interleaved else 1
            got = out[ci][2 * factor :]
            want = parsed.coefficients[ci][2 * factor :]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("edge_mode,dc_mode", [
        ("lakhani", "gradient"),
        ("avg", "gradient"),
        ("lakhani", "median8"),
        ("avg", "packjpg"),
    ])
    def test_all_model_configs_roundtrip(self, parsed, edge_mode, dc_mode):
        config = ModelConfig(edge_mode=edge_mode, dc_mode=dc_mode)
        out = self._roundtrip(
            parsed, parsed.coefficients, 0, parsed.frame.mcu_count, config
        )
        for got, want in zip(out, parsed.coefficients):
            assert np.array_equal(got, want)

    def test_lakhani_beats_avg_on_smooth_images(self, parsed):
        """§4.3: edge prediction contributes real savings."""
        sizes = {}
        for mode in ("lakhani", "avg"):
            enc = BoolEncoder()
            SegmentCodec(
                parsed.frame, parsed.quant_tables, parsed.coefficients,
                ModelConfig(edge_mode=mode),
            ).encode(enc, 0, parsed.frame.mcu_count)
            sizes[mode] = len(enc.finish())
        assert sizes["lakhani"] < sizes["avg"]

    def test_gradient_beats_packjpg_dc(self, parsed):
        sizes = {}
        for mode in ("gradient", "packjpg"):
            enc = BoolEncoder()
            SegmentCodec(
                parsed.frame, parsed.quant_tables, parsed.coefficients,
                ModelConfig(dc_mode=mode),
            ).encode(enc, 0, parsed.frame.mcu_count)
            sizes[mode] = len(enc.finish())
        assert sizes["gradient"] < sizes["packjpg"]

    def test_bit_cost_accounting_sums_to_output(self, parsed):
        codec = SegmentCodec(parsed.frame, parsed.quant_tables, parsed.coefficients,
                             model=Model(account=True))
        enc = BoolEncoder()
        codec.encode(enc, 0, parsed.frame.mcu_count)
        coded_bits = len(enc.finish()) * 8
        charged = sum(codec.model.bit_costs.values())
        # Information content matches actual output within coder overhead.
        assert charged == pytest.approx(coded_bits, rel=0.05, abs=64)
