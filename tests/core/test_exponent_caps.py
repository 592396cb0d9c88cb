"""Coefficient coding at each section's exponent cap.

No corpus image comes near the caps (a q=100 noise image peaks at
|AC| 215, exponent 8), so image-based checks never reach the residual
bins of exponents 9-14.  These crafted coefficient arrays do: every block
mixes values of every exponent up to its section's cap, and the first
block of each component (which has no neighbours, so every prediction is
0) sits exactly on the caps — 7x7 values at exponent 11, edge deltas at
exponent 12, DC deltas at exponent 14, and non-zero counts of 49 and 7.
The coded bytes are pinned by SHA-256 for all four ``ModelConfig``
variants, and one step past each cap must raise ``ValueOutOfRange``.
"""

import hashlib

import numpy as np
import pytest

from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.coefcoder import SegmentCodec
from repro.core.errors import ValueOutOfRange
from repro.core.model import ModelConfig
from repro.corpus.builder import corpus_jpeg
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.zigzag import (
    LEFT_COL_RASTER,
    SEVEN_BY_SEVEN_RASTER,
    TOP_ROW_RASTER,
)

CONFIGS = {
    "lakhani_gradient": ModelConfig(),
    "avg_gradient": ModelConfig(edge_mode="avg"),
    "lakhani_median8": ModelConfig(dc_mode="median8"),
    "avg_packjpg": ModelConfig(edge_mode="avg", dc_mode="packjpg"),
}

#: SHA-256 of the coded bytes per configuration.
CODED_SHA256 = {
    "lakhani_gradient": "27942df4f5ddc4ec012935d7ec2f0112f2baae12fa22f7ff3efb0c6a56e8a096",
    "avg_gradient": "d830b663be9332b610801a5a9eff2d84bd03d9ed57edd537592687a4f9259af5",
    "lakhani_median8": "2ad19b68541d76cd5dd1b77eda53dace05c4b33fb7adf8776bfb09b7a9347a76",
    "avg_packjpg": "a698b3ecac5869ebc1e1a79ccae41d89b073a852b162f2daac9604e0286ad905",
}

CAP_77 = (1 << 11) - 1
CAP_EDGE = (1 << 12) - 1
CAP_DC = (1 << 14) - 1
#: Largest magnitudes safe in blocks with neighbours: predictions are
#: clamped to ±1024 (edges) and ±2048 (DC), so deltas stay within the caps.
SAFE_EDGE = CAP_EDGE - 1024
SAFE_DC = CAP_DC - 2048
EDGE = np.concatenate([TOP_ROW_RASTER, LEFT_COL_RASTER])


@pytest.fixture(scope="module")
def image():
    return parse_jpeg(corpus_jpeg(seed=1, height=64, width=96, quality=85))


def _values(rng, count, cap, limit):
    """Signed values whose exponents cover 0..cap, magnitudes ≤ limit."""
    exps = rng.integers(0, cap + 1, count)
    lows = np.where(exps > 0, 1 << np.maximum(exps - 1, 0), 0)
    highs = np.minimum((1 << exps) - 1, limit)
    mags = lows + (rng.random(count) * (highs - lows + 1)).astype(np.int64)
    mags = np.minimum(mags, highs)
    signs = np.where(rng.random(count) < 0.5, -1, 1)
    return (mags * signs).astype(np.int32)


def crafted(frame, seed=14):
    rng = np.random.default_rng(seed)
    arrays = []
    for ci, comp in enumerate(frame.components):
        arr = np.zeros((comp.blocks_h, comp.blocks_w, 64), dtype=np.int32)
        blocks = arr.reshape(-1, 64)
        n = len(blocks)
        blocks[:, SEVEN_BY_SEVEN_RASTER] = _values(rng, n * 49, 11, CAP_77).reshape(n, 49)
        blocks[:, EDGE] = _values(rng, n * 14, 12, SAFE_EDGE).reshape(n, 14)
        blocks[:, 0] = _values(rng, n, 14, SAFE_DC)
        # Sparse blocks too, so the remaining-non-zeros contexts vary.
        sparse = rng.random((n // 2, 64)) < 0.6
        sparse[:, 0] = False
        blocks[: n // 2][sparse] = 0
        first = arr[0, 0]
        first[SEVEN_BY_SEVEN_RASTER] = CAP_77 * np.where(np.arange(49) % 2, -1, 1)
        first[EDGE] = CAP_EDGE * np.where(np.arange(14) % 3, 1, -1)
        first[0] = -CAP_DC if ci % 2 else CAP_DC
        arrays.append(arr)
    return arrays


def _encode(img, arrays, config) -> bytes:
    enc = BoolEncoder()
    SegmentCodec(img.frame, img.quant_tables, arrays, config).encode(
        enc, 0, img.frame.mcu_count)
    return enc.finish()


def test_crafted_arrays_sit_on_every_cap(image):
    arrays = crafted(image.frame)
    for arr in arrays:
        first = arr[0, 0]
        assert np.count_nonzero(first[SEVEN_BY_SEVEN_RASTER]) == 49
        assert np.count_nonzero(first[TOP_ROW_RASTER]) == 7
        assert np.count_nonzero(first[LEFT_COL_RASTER]) == 7
        assert abs(first[SEVEN_BY_SEVEN_RASTER]).max() == CAP_77
        assert abs(first[EDGE]).max() == CAP_EDGE
        assert abs(int(first[0])) == CAP_DC
    luma = arrays[0].reshape(-1, 64)
    exps = {int(abs(v)).bit_length() for v in luma[:, SEVEN_BY_SEVEN_RASTER].ravel()}
    assert exps == set(range(12))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_caps_round_trip_and_coded_bytes_are_pinned(image, name):
    config = CONFIGS[name]
    arrays = crafted(image.frame)
    coded = _encode(image, arrays, config)
    out = [np.zeros_like(a) for a in arrays]
    SegmentCodec(image.frame, image.quant_tables, out, config).decode(
        BoolDecoder(coded), 0, image.frame.mcu_count)
    for got, want in zip(out, arrays):
        assert np.array_equal(got, want)
    assert hashlib.sha256(coded).hexdigest() == CODED_SHA256[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("raster,value", [
    (9, CAP_77 + 1),        # 7x7 value at exponent 12
    (1, CAP_EDGE + 1),      # top-row edge delta at exponent 13
    (8, -(CAP_EDGE + 1)),   # left-column edge delta at exponent 13
    (0, CAP_DC + 1),        # DC delta at exponent 15
])
def test_one_step_past_each_cap_is_rejected(image, name, raster, value):
    arrays = crafted(image.frame)
    arrays[0][0, 0, raster] = value
    with pytest.raises(ValueOutOfRange):
        _encode(image, arrays, CONFIGS[name])
