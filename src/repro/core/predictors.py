"""Coefficient predictors (§3.3, Appendix A.2), in exact integer arithmetic.

All predictions are computed in fixed point (the orthonormal DCT basis
scaled by 2^13) over *dequantised* integer coefficients, so that encoder and
decoder derive bit-identical contexts on any platform — the determinism
property the paper spends §5.2 fighting for in C++ comes for free here by
avoiding floating point in every coded decision.

Up to its final rounding, every prediction is linear in the dequantised
coefficients of the blocks involved, so the codec applies two integer
matrices to a block's 64 raster coefficients instead of transforming
blocks one neighbour at a time:

* :data:`INTERIOR_SUMS` (64×16) gives the current block's own share of its
  Lakhani edge predictions, ``Σ_{u≥1} B0u·F[u, v]`` per column ``v``
  (outputs 0-7) and ``Σ_{v≥1} B0v·F[u, v]`` per row ``u`` (outputs 8-15).
  It reads only the 7x7 interior, which is known when the edges are coded.
* :data:`FINISHED` (64×48 per DC mode) is applied once per block, after
  its AC coefficients are known: the block's own *seam terms* for its DC
  prediction (outputs 0-15: top row, then left column), the seam terms
  the blocks below and to the right match against (16-31: bottom row,
  then right column), and the edge projections ``Σ_u B7u·F[u, v]`` (32-39)
  and ``Σ_v B7v·F[u, v]`` (40-47), the neighbour's share of their Lakhani
  predictions.  A seam term is the one linear combination of a pixel pair
  each DC predictor needs (:data:`SEAM_DC_WEIGHT` documents them).

The codec folds each component's quantisation table into both matrices
(:func:`dequantising`), so a block's quantised coefficients go in directly
and its DC, which a block's own seam terms must exclude, gets no weight.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.jpeg.dct import BASIS

FIX_BITS = 13
BF = np.round(BASIS * (1 << FIX_BITS)).astype(np.int64)  # BF[u, x]
BF.setflags(write=False)
#: The DC basis weight, by which a Lakhani prediction divides.
B00 = int(BF[0, 0])
#: What a DC coefficient of 1 adds to every fixed-point pixel: B00².
DC_PIXEL = B00 * B00

# Pixel scale after two basis multiplications: 2^(2*FIX_BITS).
_PIXEL_SCALE = 1 << (2 * FIX_BITS)


def _pixel(x: int, y: int) -> np.ndarray:
    """Weights of pixel (x, y) — row x, column y — over raster F[u, v]."""
    return np.outer(BF[:, x], BF[:, y]).ravel()


def _projection(axis: int, index: int) -> np.ndarray:
    """Σ_u B7u·F[u, index] (axis 0) or Σ_v B7v·F[index, v] (axis 1)."""
    weights = np.zeros((8, 8), dtype=np.int64)
    if axis == 0:
        weights[:, index] = BF[:, 7]
    else:
        weights[index, :] = BF[:, 7]
    return weights.ravel()


def _interior_sum(axis: int, index: int) -> np.ndarray:
    """Σ_{u≥1} B0u·F[u, index] (axis 0) or Σ_{v≥1} B0v·F[index, v] (axis 1)."""
    weights = np.zeros((8, 8), dtype=np.int64)
    if index:
        if axis == 0:
            weights[1:, index] = BF[1:, 0]
        else:
            weights[index, 1:] = BF[1:, 0]
    return weights.ravel()


def _seams(first, second, weight_first, weight_second, axis) -> list:
    """Eight seam terms along a block edge: ``weight_first`` × pixel row
    (axis 0) or column (axis 1) ``first`` plus ``weight_second`` × row or
    column ``second``, one per pixel along the edge."""
    def pixel(line, i):
        return _pixel(line, i) if axis == 0 else _pixel(i, line)
    return [weight_first * pixel(first, i) + weight_second * pixel(second, i)
            for i in range(8)]


#: Per DC mode: what the seam terms combine, and the weight the
#: neighbour's DC gets in its seam terms (a DC of 1 adds DC_PIXEL to every
#: pixel).  ``gradient`` matches ``c1 − 3·c0`` (own rows/columns 0, 1)
#: against ``3·n7 − n6`` (neighbour rows/columns 6, 7), so the DC counts
#: 3 − 1 = 2 times; ``median8`` matches ``−c0`` against ``n7``.
SEAM_DC_WEIGHT = {"gradient": 2, "median8": 1}
_SEAM_LINES = {
    # own (first, second, weights), neighbour (first, second, weights)
    "gradient": ((0, 1, -3, 1), (7, 6, 3, -1)),
    "median8": ((0, 1, -1, 0), (7, 6, 1, 0)),
}

INTERIOR_SUMS = np.stack(
    [_interior_sum(0, v) for v in range(8)]
    + [_interior_sum(1, u) for u in range(8)], axis=1)
INTERIOR_SUMS.setflags(write=False)
_PROJECTIONS = ([_projection(0, v) for v in range(8)]
                + [_projection(1, u) for u in range(8)])
FINISHED = {}
for _mode, (_own, _neighbour) in _SEAM_LINES.items():
    FINISHED[_mode] = np.stack(
        _seams(*_own, axis=0) + _seams(*_own, axis=1)
        + _seams(*_neighbour, axis=0) + _seams(*_neighbour, axis=1)
        + _PROJECTIONS, axis=1)
    FINISHED[_mode].setflags(write=False)
#: Output offsets of FINISHED: own top and left seams, the bottom and right
#: seams a neighbour reads, the column and row edge projections.
OWN_TOP, OWN_LEFT, SEAM_BOTTOM, SEAM_RIGHT = 0, 8, 16, 24
COLUMN_PROJECTION, ROW_PROJECTION = 32, 40


def dequantising(matrix: np.ndarray, qtable: np.ndarray) -> np.ndarray:
    """``matrix`` applied to quantised raster coefficients: row ``r``
    scaled by ``q[r]``, and the DC row zeroed."""
    folded = qtable.astype(np.int64)[:, None] * matrix
    folded[0] = 0
    return folded


def _div_round(num: int, den: int) -> int:
    """Round-to-nearest integer division, ties away from zero, sign-safe."""
    if num >= 0:
        return (num + den // 2) // den
    return -((-num + den // 2) // den)


def weighted_avg_abs(above: Optional[int], left: Optional[int],
                     above_left: Optional[int]) -> int:
    """|A| + |L| + ½|AL| — the bin index basis for 7x7 coefficients (§3.3)."""
    total = 0
    if above is not None:
        total += abs(above)
    if left is not None:
        total += abs(left)
    if above_left is not None:
        total += abs(above_left) >> 1
    return total


def weighted_avg_value(above: Optional[int], left: Optional[int],
                       above_left: Optional[int]) -> int:
    """F̄ = (13·FA + 13·FL + 6·FAL)/32 (§A.2.1) with absent neighbours as 0."""
    total = 0
    if above is not None:
        total += 13 * above
    if left is not None:
        total += 13 * left
    if above_left is not None:
        total += 6 * above_left
    return _div_round(total, 32)


def lakhani_prediction(neighbour_projection: int, interior_sum: int) -> int:
    """Predict a dequantised edge coefficient from the adjacent block (§A.2.2).

    Assumes pixel continuity across the shared block edge.  For the top
    row, ``F̄0v = (Σ_u B7u·A[u,v] − Σ_{u≥1} B0u·F[u,v]) / B00`` with ``A`` the
    block above; the left column is the transpose with the block to the
    left.  The two sums are a FINISHED projection of the neighbour and an
    INTERIOR_SUMS output of the current block.
    """
    return _div_round(neighbour_projection - interior_sum, B00)


# --- DC prediction (§A.2.3) ------------------------------------------------


def _seam_estimates(own, above, left, q_dc: int, shift: int) -> List[int]:
    """One DC estimate per seam: ``(n + dc + c) >> shift`` over
    ``q_dc · 2^23``, rounded half away from zero (arguments as for
    :func:`dc_predictions`)."""
    den = (q_dc * _PIXEL_SCALE) >> 3  # a DC adds deq/8 to every pixel
    half = den >> 1
    seams: List[int] = []
    if above is not None:
        terms, dc = above
        seams += [(n + dc + c) >> shift for n, c in zip(terms, own)]
    if left is not None:
        terms, dc = left
        seams += [(n + dc + c) >> shift for n, c in zip(terms, own[8:16])]
    return [(s + half) // den if s >= 0 else -((half - s) // den) for s in seams]


def dc_predictions(
    own: Sequence[int],
    above: Optional[Tuple[Sequence[int], int]],
    left: Optional[Tuple[Sequence[int], int]],
    q_dc: int,
) -> Tuple[List[int], int, int]:
    """The 16 gradient-based DC predictions for a block.

    Linearly interpolates pixel gradients across the top and left block
    edges (Figure 17, right): for each of the 16 border pixel pairs, the DC
    value that lets the two gradients meet seamlessly.  Returns
    ``(predictions, final_prediction, confidence_spread)`` with predictions
    in the *quantised* DC domain.

    ``own`` starts with the block's 16 gradient seam terms (FINISHED
    outputs 0-15: ``c1 − 3·c0`` along its top row, then its left column,
    DC excluded).  ``above`` is ``(terms, dc)``: the above block's 8 bottom
    seam terms ``3·n7 − n6`` (outputs 16-23) and its DC's share of each,
    ``2 · DC_PIXEL · q_dc · DC``; ``left`` the same with the left block's
    right seam terms (outputs 24-31).  Either is None where that neighbour
    is absent.

    The seam where the two gradients meet is ``n7 + ⌊(n7 − n6 + c1 − c0)/2⌋``,
    and the DC that moves the edge pixel ``c0`` onto it is that minus ``c0``,
    times 8 over ``q_dc · 2^26`` (a DC adds deq/8 to every pixel).  Both
    are one expression in the seam terms, ``⌊(3·n7 − n6 + c1 − 3·c0)/2⌋``
    over ``q_dc · 2^23``, rounded half away from zero: exactly the same
    integer.
    """
    preds = _seam_estimates(own, above, left, q_dc, shift=1)
    if not preds:
        return [], 0, 1 << 13
    return preds, _div_round(sum(preds), len(preds)), max(preds) - min(preds)


def dc_prediction_median8(
    own: Sequence[int],
    above: Optional[Tuple[Sequence[int], int]],
    left: Optional[Tuple[Sequence[int], int]],
    q_dc: int,
) -> Tuple[int, int]:
    """The paper's "first-cut" DC predictor (Figure 17, left).

    Matches border pixels directly (no gradient), averages the median 8 of
    the 16 per-pair DC estimates, discarding outliers.  Kept for the §4.3 /
    A.2.3 ablation (≈30% DC savings vs ≈40% for the gradient version).
    Arguments as for :func:`dc_predictions`, with the median8 seam terms:
    ``−c0`` for the block's own, ``n7`` for its neighbours' (whose DC
    share is ``DC_PIXEL · q_dc · DC``).
    """
    preds = sorted(_seam_estimates(own, above, left, q_dc, shift=0))
    if not preds:
        return 0, 1 << 13
    n = len(preds)
    lo, hi = n // 4, n - n // 4  # middle half (8 of 16)
    middle = preds[lo:hi] or preds
    final = _div_round(sum(middle), len(middle))
    return final, preds[-1] - preds[0]
