"""Lakhani edge prediction and DC gradient prediction (§A.2)."""

import numpy as np
import pytest

from repro.core.predictors import (
    BF,
    COLUMN_PROJECTION,
    DC_PIXEL,
    FINISHED,
    INTERIOR_SUMS,
    OWN_LEFT,
    OWN_TOP,
    ROW_PROJECTION,
    SEAM_BOTTOM,
    SEAM_DC_WEIGHT,
    SEAM_RIGHT,
    _div_round,
    dc_prediction_median8 as _median8_from_seams,
    dc_predictions as _dc_from_seams,
    dequantising,
    lakhani_prediction,
    weighted_avg_abs,
    weighted_avg_value,
)
from repro.jpeg.dct import fdct2


def _finished(deq, mode="gradient"):
    """FINISHED outputs of an 8x8 dequantised block, its DC excluded, and
    the DC's share of each neighbour seam term."""
    deq = np.asarray(deq, dtype=np.int64).reshape(64)
    no_dc = deq.copy()
    no_dc[0] = 0
    return (no_dc @ FINISHED[mode]).tolist(), SEAM_DC_WEIGHT[mode] * DC_PIXEL * int(deq[0])


def lakhani_row_prediction(above_deq, cur_deq, v):
    """Dequantised F[0, v] predicted from the block above."""
    out, _ = _finished(above_deq)
    interior = np.asarray(cur_deq, dtype=np.int64).reshape(64) @ INTERIOR_SUMS
    return lakhani_prediction(out[COLUMN_PROJECTION + v], int(interior[v]))


def lakhani_col_prediction(left_deq, cur_deq, u):
    """Dequantised F[u, 0] predicted from the block to the left."""
    out, _ = _finished(left_deq)
    interior = np.asarray(cur_deq, dtype=np.int64).reshape(64) @ INTERIOR_SUMS
    return lakhani_prediction(out[ROW_PROJECTION + u], int(interior[8 + u]))


def _seams(cur_no_dc, above_deq, left_deq, mode):
    own, _ = _finished(cur_no_dc, mode)
    above = left = None
    if above_deq is not None:
        out, dc = _finished(above_deq, mode)
        above = (out[SEAM_BOTTOM:SEAM_RIGHT], dc)
    if left_deq is not None:
        out, dc = _finished(left_deq, mode)
        left = (out[SEAM_RIGHT:COLUMN_PROJECTION], dc)
    return own, above, left


def dc_predictions(cur_no_dc, above_deq, left_deq, q_dc):
    return _dc_from_seams(*_seams(cur_no_dc, above_deq, left_deq, "gradient"), q_dc)


def dc_prediction_median8(cur_no_dc, above_deq, left_deq, q_dc):
    return _median8_from_seams(*_seams(cur_no_dc, above_deq, left_deq, "median8"), q_dc)


def _pixel_pair_predictions(cur_no_dc, above_deq, left_deq, q_dc, mode):
    """The DC predictors as first written, over whole pixel rows and
    columns: the reference the seam-term forms must equal exactly."""
    den = q_dc << 26
    cur = BF.T @ np.asarray(cur_no_dc, dtype=np.int64) @ BF
    pairs = []
    if above_deq is not None:
        a = BF.T @ np.asarray(above_deq, dtype=np.int64) @ BF
        pairs += zip(a[6].tolist(), a[7].tolist(), cur[0].tolist(), cur[1].tolist())
    if left_deq is not None:
        b = BF.T @ np.asarray(left_deq, dtype=np.int64) @ BF
        pairs += zip(b[:, 6].tolist(), b[:, 7].tolist(),
                     cur[:, 0].tolist(), cur[:, 1].tolist())
    if mode == "gradient":
        return [_div_round(8 * (n7 + ((n7 - n6) + (c1 - c0)) // 2 - c0), den)
                for n6, n7, c0, c1 in pairs]
    return [_div_round(8 * (n7 - c0), den) for _, n7, c0, _ in pairs]


class TestTransforms:
    """The matrices against the transforms they replace."""

    def test_finished_matches_the_pixel_transform(self):
        rng = np.random.default_rng(9)
        deq = rng.integers(-4000, 4000, (8, 8)).astype(np.int64)
        pixels = BF.T @ deq @ BF
        expected = {
            "gradient": (pixels[1] - 3 * pixels[0], pixels[:, 1] - 3 * pixels[:, 0],
                         3 * pixels[7] - pixels[6], 3 * pixels[:, 7] - pixels[:, 6]),
            "median8": (-pixels[0], -pixels[:, 0], pixels[7], pixels[:, 7]),
        }
        for mode, (top, left, bottom, right) in expected.items():
            out = (deq.reshape(64) @ FINISHED[mode]).tolist()
            assert out[OWN_TOP:OWN_LEFT] == top.tolist()
            assert out[OWN_LEFT:SEAM_BOTTOM] == left.tolist()
            assert out[SEAM_BOTTOM:SEAM_RIGHT] == bottom.tolist()
            assert out[SEAM_RIGHT:COLUMN_PROJECTION] == right.tolist()
            assert out[COLUMN_PROJECTION:ROW_PROJECTION] == (BF[:, 7] @ deq).tolist()
            assert out[ROW_PROJECTION:] == (deq @ BF[:, 7]).tolist()

    def test_dc_adds_a_constant_to_every_pixel(self):
        deq = np.zeros((8, 8), dtype=np.int64)
        deq[0, 0] = 3
        for mode in FINISHED:
            out = (deq.reshape(64) @ FINISHED[mode]).tolist()
            # A neighbour's DC shifts each of its seam terms by one share.
            assert set(out[SEAM_BOTTOM:COLUMN_PROJECTION]) == {
                SEAM_DC_WEIGHT[mode] * 3 * DC_PIXEL}

    def test_interior_sums_read_only_the_interior(self):
        rng = np.random.default_rng(10)
        deq = rng.integers(-4000, 4000, (8, 8)).astype(np.int64)
        sums = (deq.reshape(64) @ INTERIOR_SUMS).tolist()
        for k in range(1, 8):
            assert sums[k] == int(BF[1:, 0] @ deq[1:, k])
            assert sums[8 + k] == int(deq[k, 1:] @ BF[1:, 0])
        deq[0, :] = 0
        deq[:, 0] = 0
        assert (deq.reshape(64) @ INTERIOR_SUMS).tolist()[1:8] == sums[1:8]

    def test_dequantising_folds_the_table_and_drops_the_dc(self):
        rng = np.random.default_rng(11)
        coefs = rng.integers(-1000, 1000, 64).astype(np.int32)
        qtable = rng.integers(1, 256, 64).astype(np.int32)
        deq = coefs.astype(np.int64) * qtable
        deq[0] = 0
        for matrix in (INTERIOR_SUMS, FINISHED["gradient"], FINISHED["median8"]):
            assert (coefs @ dequantising(matrix, qtable)).tolist() == (
                deq @ matrix).tolist()


class TestDivRound:
    @pytest.mark.parametrize("num,den,expected", [
        (10, 3, 3), (11, 3, 4), (-10, 3, -3), (-11, 3, -4),
        (5, 2, 3), (-5, 2, -3), (0, 7, 0),
    ])
    def test_rounds_half_away_from_zero(self, num, den, expected):
        assert _div_round(num, den) == expected


class TestWeightedAverages:
    def test_all_neighbours(self):
        assert weighted_avg_abs(3, -4, 6) == 3 + 4 + 3
        assert weighted_avg_value(2, 2, 2) == _div_round(13 * 2 + 13 * 2 + 6 * 2, 32)

    def test_missing_neighbours_treated_as_zero(self):
        assert weighted_avg_abs(None, 5, None) == 5
        assert weighted_avg_value(None, None, None) == 0


def _smooth_field(width=16, height=8, seed=0):
    """Two horizontally adjacent 8x8 pixel blocks from one smooth surface."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    surface = (
        30.0 * np.sin(xx / 9.0) + 20.0 * np.cos(yy / 7.0)
        + 0.8 * xx + rng.normal(0, 0.3, (height, width))
    )
    return surface


class TestLakhani:
    def test_row_prediction_recovers_smooth_edge(self):
        """On a vertically smooth surface, predicting the current block's
        F[0, v] from the *above* block lands near the true value."""
        surface = _smooth_field(width=8, height=16, seed=1)  # 16 rows x 8 cols
        above = fdct2(surface[0:8, :])
        cur = fdct2(surface[8:16, :])
        cur_known = cur.copy()
        cur_known[0, :] = 0.0  # the unknowns
        scale = 64
        above_i = np.round(above * scale).astype(np.int64)
        cur_i = np.round(cur_known * scale).astype(np.int64)
        for v in range(1, 8):
            pred = lakhani_row_prediction(above_i, cur_i, v) / scale
            assert pred == pytest.approx(float(cur[0, v]), abs=3.0)

    def test_col_prediction_recovers_smooth_edge(self):
        surface = _smooth_field(16, 8, seed=2)  # 8 rows x 16 cols
        left = fdct2(surface[:, 0:8])
        cur = fdct2(surface[:, 8:16])
        cur_known = cur.copy()
        cur_known[:, 0] = 0.0
        scale = 64
        left_i = np.round(left * scale).astype(np.int64)
        cur_i = np.round(cur_known * scale).astype(np.int64)
        for u in range(1, 8):
            pred = lakhani_col_prediction(left_i, cur_i, u) / scale
            assert pred == pytest.approx(float(cur[u, 0]), abs=3.0)

    def test_prediction_is_deterministic_integer(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-500, 500, (8, 8)).astype(np.int64)
        c = rng.integers(-500, 500, (8, 8)).astype(np.int64)
        assert lakhani_row_prediction(a, c, 3) == lakhani_row_prediction(a, c, 3)


def _gradient_blocks(slope_y=2.0, slope_x=0.5, base=50.0):
    """Three blocks of one global luminance gradient: above, left, current."""
    yy, xx = np.mgrid[0:16, 0:16].astype(np.float64)
    surface = base + slope_y * yy + slope_x * xx
    above = fdct2(surface[0:8, 8:16])
    left = fdct2(surface[8:16, 0:8])
    cur = fdct2(surface[8:16, 8:16])
    return above, left, cur


class TestDcPrediction:
    def _as_int(self, block, scale=1):
        return np.round(block * scale).astype(np.int64)

    def test_gradient_prediction_close_on_smooth_image(self):
        above, left, cur = _gradient_blocks()
        true_dc = int(round(cur[0, 0]))
        cur_no_dc = self._as_int(cur)
        cur_no_dc[0, 0] = 0
        preds, final, spread = dc_predictions(
            cur_no_dc, self._as_int(above), self._as_int(left), q_dc=1
        )
        assert len(preds) == 16
        assert abs(final - true_dc) <= 2
        assert spread <= 4  # a pure gradient: all 16 predictions agree

    def test_median8_less_accurate_than_gradient_on_gradients(self):
        """The §A.2.3 claim: gradient interpolation beats border matching
        when the image has a smooth gradient."""
        above, left, cur = _gradient_blocks(slope_y=4.0)
        true_dc = int(round(cur[0, 0]))
        cur_no_dc = self._as_int(cur)
        cur_no_dc[0, 0] = 0
        _, grad_pred, _ = dc_predictions(
            cur_no_dc, self._as_int(above), self._as_int(left), q_dc=1
        )
        med_pred, _ = dc_prediction_median8(
            cur_no_dc, self._as_int(above), self._as_int(left), q_dc=1
        )
        assert abs(grad_pred - true_dc) <= abs(med_pred - true_dc)

    def test_no_neighbours_returns_zero_with_max_spread(self):
        cur = np.zeros((8, 8), dtype=np.int64)
        preds, final, spread = dc_predictions(cur, None, None, q_dc=8)
        assert preds == []
        assert final == 0
        assert spread == 1 << 13

    def test_single_neighbour_gives_eight_predictions(self):
        above, _, cur = _gradient_blocks()
        cur_no_dc = self._as_int(cur)
        cur_no_dc[0, 0] = 0
        preds, _, _ = dc_predictions(cur_no_dc, self._as_int(above), None, q_dc=1)
        assert len(preds) == 8

    def test_quantisation_scales_prediction(self):
        above, left, cur = _gradient_blocks()
        cur_no_dc = self._as_int(cur)
        cur_no_dc[0, 0] = 0
        _, p1, _ = dc_predictions(cur_no_dc, self._as_int(above),
                                  self._as_int(left), q_dc=1)
        _, p4, _ = dc_predictions(cur_no_dc, self._as_int(above),
                                  self._as_int(left), q_dc=4)
        assert p4 == pytest.approx(p1 / 4, abs=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_seam_terms_match_the_pixel_pair_formula(self, seed):
        rng = np.random.default_rng(seed)
        cur, above, left = (rng.integers(-3000, 3000, (8, 8)).astype(np.int64)
                            for _ in range(3))
        cur[0, 0] = 0
        for q_dc in (1, 3, 16):
            for a, b in ((above, left), (above, None), (None, left)):
                preds, _, _ = dc_predictions(cur, a, b, q_dc)
                assert preds == _pixel_pair_predictions(cur, a, b, q_dc, "gradient")
                reference = sorted(_pixel_pair_predictions(cur, a, b, q_dc, "median8"))
                n = len(reference)
                middle = reference[n // 4:n - n // 4]
                assert dc_prediction_median8(cur, a, b, q_dc) == (
                    _div_round(sum(middle), len(middle)), reference[-1] - reference[0])

    def test_median8_no_neighbours(self):
        pred, spread = dc_prediction_median8(
            np.zeros((8, 8), dtype=np.int64), None, None, q_dc=8
        )
        assert pred == 0
        assert spread == 1 << 13
