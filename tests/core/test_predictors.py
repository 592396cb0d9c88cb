"""Lakhani edge prediction and DC gradient prediction (§A.2)."""

import numpy as np
import pytest

from repro.core.predictors import (
    BF,
    BORDER,
    BORDER_COLS,
    BORDER_ROWS,
    COLUMN_PROJECTION,
    DC_PIXEL,
    FINISHED,
    INTERIOR_SUMS,
    ROW_PROJECTION,
    _div_round,
    dc_prediction_median8 as _median8_from_pixels,
    dc_predictions as _dc_from_pixels,
    lakhani_prediction,
    weighted_avg_abs,
    weighted_avg_value,
)
from repro.jpeg.dct import fdct2


def _finished(deq):
    """FINISHED outputs of an 8x8 dequantised block (its border part too)."""
    out = np.asarray(deq, dtype=np.int64).reshape(64) @ FINISHED
    return out[: BORDER.start].tolist(), out[BORDER].tolist()


def lakhani_row_prediction(above_deq, cur_deq, v):
    """Dequantised F[0, v] predicted from the block above."""
    _, border = _finished(above_deq)
    interior = np.asarray(cur_deq, dtype=np.int64).reshape(64) @ INTERIOR_SUMS
    return lakhani_prediction(border[COLUMN_PROJECTION + v], int(interior[v]))


def lakhani_col_prediction(left_deq, cur_deq, u):
    """Dequantised F[u, 0] predicted from the block to the left."""
    _, border = _finished(left_deq)
    interior = np.asarray(cur_deq, dtype=np.int64).reshape(64) @ INTERIOR_SUMS
    return lakhani_prediction(border[ROW_PROJECTION + u], int(interior[8 + u]))


def _pixels(cur_no_dc, above_deq, left_deq):
    own, _ = _finished(cur_no_dc)
    above = None if above_deq is None else _finished(above_deq)[1][BORDER_ROWS]
    left = None if left_deq is None else _finished(left_deq)[1][BORDER_COLS]
    return own, above, left


def dc_predictions(cur_no_dc, above_deq, left_deq, q_dc):
    return _dc_from_pixels(*_pixels(cur_no_dc, above_deq, left_deq), q_dc)


def dc_prediction_median8(cur_no_dc, above_deq, left_deq, q_dc):
    return _median8_from_pixels(*_pixels(cur_no_dc, above_deq, left_deq), q_dc)


class TestTransforms:
    """The matrices against the transforms they replace."""

    def test_finished_matches_the_pixel_transform(self):
        rng = np.random.default_rng(9)
        deq = rng.integers(-4000, 4000, (8, 8)).astype(np.int64)
        pixels = BF.T @ deq @ BF
        own, border = _finished(deq)
        assert own == (pixels[0].tolist() + pixels[1].tolist()
                       + pixels[:, 0].tolist() + pixels[:, 1].tolist())
        assert border[:32] == (pixels[6].tolist() + pixels[7].tolist()
                               + pixels[:, 6].tolist() + pixels[:, 7].tolist())
        assert border[COLUMN_PROJECTION:ROW_PROJECTION] == (BF[:, 7] @ deq).tolist()
        assert border[ROW_PROJECTION:] == (deq @ BF[:, 7]).tolist()

    def test_dc_adds_a_constant_to_every_pixel(self):
        deq = np.zeros((8, 8), dtype=np.int64)
        deq[0, 0] = 3
        own, border = _finished(deq)
        assert set(own + border[:32]) == {3 * DC_PIXEL}

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

    def test_median8_no_neighbours(self):
        pred, spread = dc_prediction_median8(
            np.zeros((8, 8), dtype=np.int64), None, None, q_dc=8
        )
        assert pred == 0
        assert spread == 1 << 13
