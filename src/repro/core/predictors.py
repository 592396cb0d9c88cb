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
* :data:`FINISHED` (64×80) is applied once per block, DC excluded, after
  its AC coefficients are known: pixel rows 0, 1 and columns 0, 1 (what the
  block's own DC prediction matches against), pixel rows 6, 7 and columns
  6, 7 (what the blocks below and to the right match against), and the
  edge projections ``Σ_u B7u·F[u, v]`` and ``Σ_v B7v·F[u, v]`` (the
  neighbour's share of their Lakhani predictions).
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.jpeg.dct import BASIS

FIX_BITS = 13
BF = np.round(BASIS * (1 << FIX_BITS)).astype(np.int64)  # BF[u, x]
BF.setflags(write=False)
_B00 = int(BF[0, 0])
#: What a DC coefficient of 1 adds to every fixed-point pixel: B00².
DC_PIXEL = _B00 * _B00

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


INTERIOR_SUMS = np.stack(
    [_interior_sum(0, v) for v in range(8)]
    + [_interior_sum(1, u) for u in range(8)], axis=1)
FINISHED = np.stack(
    [_pixel(0, y) for y in range(8)] + [_pixel(1, y) for y in range(8)]
    + [_pixel(x, 0) for x in range(8)] + [_pixel(x, 1) for x in range(8)]
    + [_pixel(6, y) for y in range(8)] + [_pixel(7, y) for y in range(8)]
    + [_pixel(x, 6) for x in range(8)] + [_pixel(x, 7) for x in range(8)]
    + [_projection(0, v) for v in range(8)]
    + [_projection(1, u) for u in range(8)], axis=1)
INTERIOR_SUMS.setflags(write=False)
FINISHED.setflags(write=False)
#: Outputs of FINISHED for the block's own DC prediction: pixel rows 0, 1
#: then columns 0, 1.
OWN_PIXELS = slice(0, 32)
#: Outputs of FINISHED a block keeps for its neighbours, its *border*.
BORDER = slice(32, 80)
#: Offsets inside a border: pixel rows 6, 7 and columns 6, 7 (to which the
#: block's DC adds DC_PIXEL per dequantised unit), then the column and row
#: edge projections.
BORDER_PIXELS, BORDER_ROWS, BORDER_COLS = slice(0, 32), slice(0, 16), slice(16, 32)
COLUMN_PROJECTION, ROW_PROJECTION = 32, 40


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
    return _div_round(neighbour_projection - interior_sum, _B00)


# --- DC prediction (§A.2.3) ------------------------------------------------


def dc_predictions(
    own: Sequence[int],
    above: Optional[Sequence[int]],
    left: Optional[Sequence[int]],
    q_dc: int,
) -> Tuple[List[int], int, int]:
    """The 16 gradient-based DC predictions for a block.

    Linearly interpolates pixel gradients across the top and left block
    edges (Figure 17, right): for each of the 16 border pixel pairs, the DC
    value that lets the two gradients meet seamlessly.  Returns
    ``(predictions, final_prediction, confidence_spread)`` with predictions
    in the *quantised* DC domain.

    ``own`` is the block's first 32 FINISHED outputs (pixel rows 0, 1 then
    columns 0, 1, without DC); ``above`` is the above block's pixel rows
    6, 7 and ``left`` the left block's columns 6, 7 (16 values each, DC
    included), or None where that neighbour is absent.
    """
    preds: List[int] = []
    den = q_dc * _PIXEL_SCALE
    half = den // 2
    # Each pair: the seam where the two gradients meet, then the DC that
    # moves the block's edge pixel onto it (DC adds deq/8 to every pixel),
    # rounded as _div_round does.
    pairs = []
    if above is not None:
        pairs += zip(above[0:8], above[8:16], own[0:8], own[8:16])
    if left is not None:
        pairs += zip(left[0:8], left[8:16], own[16:24], own[24:32])
    for n6, n7, c0, c1 in pairs:
        num = 8 * (n7 + ((n7 - n6) + (c1 - c0)) // 2 - c0)
        preds.append((num + half) // den if num >= 0 else -((half - num) // den))
    if not preds:
        return [], 0, 1 << 13
    final = _div_round(sum(preds), len(preds))
    spread = max(preds) - min(preds)
    return preds, final, spread


def dc_prediction_median8(
    own: Sequence[int],
    above: Optional[Sequence[int]],
    left: Optional[Sequence[int]],
    q_dc: int,
) -> Tuple[int, int]:
    """The paper's "first-cut" DC predictor (Figure 17, left).

    Matches border pixels directly (no gradient), averages the median 8 of
    the 16 per-pair DC estimates, discarding outliers.  Kept for the §4.3 /
    A.2.3 ablation (≈30% DC savings vs ≈40% for the gradient version).
    Arguments as for :func:`dc_predictions`.
    """
    preds: List[int] = []
    den = q_dc * _PIXEL_SCALE
    if above is not None:
        for a7, c0 in zip(above[8:16], own[0:8]):
            preds.append(_div_round(8 * (a7 - c0), den))
    if left is not None:
        for l7, c0 in zip(left[8:16], own[16:24]):
            preds.append(_div_round(8 * (l7 - c0), den))
    if not preds:
        return 0, 1 << 13
    preds.sort()
    n = len(preds)
    lo, hi = n // 4, n - n // 4  # middle half (8 of 16)
    middle = preds[lo:hi] or preds
    final = _div_round(sum(middle), len(middle))
    return final, preds[-1] - preds[0]
