"""Coefficient coding: Exp-Golomb values over adaptive bins (§A.2).

One code path serves both directions.  :meth:`SegmentCodec._code_block`
derives every context of a block as an integer key into the model's bin
store and hands each value to the coder's ``code_value``/``code_counter``
(:mod:`repro.core.bool_coder`): an encoder codes the value it is given, a
decoder returns the value it decodes.  Since there is only one place that
derives contexts, encoder and decoder can never derive different ones —
the determinism bugs of §6.1 were exactly such divergences.

A context key packs the component (2 bits), the section (3 bits) and up to
14 bits of section fields — zigzag index, neighbour and prediction
buckets, remaining non-zeros — above the 8-bit slot each value or counter
owns, so distinct contexts get distinct keys, just as distinct tuples did.

Coding order per block (§3.3): the 7x7 non-zero count, the 49 interior AC
coefficients in zigzag order, the 7x1/1x7 edge coefficients (delta against
the Lakhani prediction), and finally the DC coefficient (delta against the
gradient prediction) — DC last so that every AC coefficient can inform it.

Predictions never transform a neighbour again: when a block is finished,
one integer matmul (:data:`~repro.core.predictors.FINISHED`, with the
component's quantisation table folded in) gives its own DC seam terms and
what the blocks below and to its right need — their seam terms and its
Lakhani edge projections.  Those outputs, and the block's DC share of its
seam terms as one integer, are kept in a per-component ring of ``v + 1``
block rows, so that state, like the coefficient
:class:`~repro.core.rowbuffer.RowWindow`, scales with image width.
"""

from operator import itemgetter
from typing import List, Optional

import numpy as np

from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.errors import FormatError
from repro.core.model import (
    Model,
    ModelConfig,
    avg_bucket,
    confidence_bucket,
    nnz_bucket,
    pred_bucket,
)
from repro.core.predictors import (
    B00,
    COLUMN_PROJECTION,
    DC_PIXEL,
    FINISHED,
    INTERIOR_SUMS,
    ROW_PROJECTION,
    SEAM_BOTTOM,
    SEAM_DC_WEIGHT,
    SEAM_RIGHT,
    dc_prediction_median8,
    dc_predictions,
    dequantising,
    weighted_avg_value,
)
from repro.jpeg.scan_decode import mcu_block_layout
from repro.jpeg.zigzag import RASTER_TO_ZIGZAG, SEVEN_BY_SEVEN_ZIGZAG_ORDER

# Section ids used in context keys.
_SEC_DC = 0
_SEC_77 = 1
_SEC_EDGE = 2
_SEC_NNZ77 = 3
_SEC_NNZ_EDGE = 4

_DC_CLAMP = 1 << 11
_EDGE_CLAMP = 1 << 10

_ORDER_77 = [int(r) for r in SEVEN_BY_SEVEN_ZIGZAG_ORDER]
#: Edge rasters per orientation: the top row F[0, k], the left column F[k, 0].
_EDGES = ([k for k in range(1, 8)], [k * 8 for k in range(1, 8)])
#: C-level gathers of the 7x7 interior and of each edge from a block.
_GATHER_77 = itemgetter(*_ORDER_77)
_GATHER_EDGES = [itemgetter(*rasters) for rasters in _EDGES]

# Context key bits: component 25-26, section 22-24, section fields 8-21,
# and the slot (bool_coder) 0-7.  Section fields:
#   7x7       zigzag index 16-21, neighbour bucket 12-15, remaining 8-11
#   edge      orientation 21, k 18-20, prediction bucket + 11 13-17,
#             remaining 8-11
#   counts    orientation 12 (edge counts only), non-zero bucket 8-11
#   DC        confidence 8-11
# The tables below hold fields already shifted into place.
_ZZ_KEY = [int(RASTER_TO_ZIGZAG[r]) << 16 for r in range(64)]
#: Indexed by the weighted neighbour magnitude; 1024 and above bucket to 11.
_AVG_KEY = [avg_bucket(t) << 12 for t in range(1024)]
_AVG_KEY_CAP = avg_bucket(1024) << 12
_NNZ_KEY = [nnz_bucket(n) << 8 for n in range(64)]
#: Indexed by the clamped edge prediction plus 1024.
_PRED_KEY = [(pred_bucket(p) + 11) << 13
             for p in range(-_EDGE_CLAMP, _EDGE_CLAMP + 1)]


def _section_key(ci: int, section: int) -> int:
    return ((ci << 3) | section) << 22


class ComponentState:
    """Per-component coding state shared across a segment."""

    def __init__(self, index: int, coefficients, qtable: np.ndarray, rows: int,
                 dc_mode: str):
        self.coefficients = coefficients  # (blocks_h, blocks_w, 64) int32
        self.q = [int(x) for x in qtable]  # raster
        self.q_dc = self.q[0]
        #: The predictor matrices applied to quantised coefficients.
        self.interior = dequantising(INTERIOR_SUMS, qtable)
        self.finished = dequantising(
            FINISHED["median8" if dc_mode == "median8" else "gradient"], qtable)
        #: What one unit of a finished block's DC adds to its seam terms.
        self.dc_unit = (SEAM_DC_WEIGHT.get(dc_mode, 0) * DC_PIXEL
                        * self.q_dc)
        blocks_w = coefficients.shape[1]
        #: Ring of the last ``rows`` block rows: each finished block's
        #: coefficients and FINISHED outputs (as lists), its DC share of its
        #: seam terms, and its 7x7 non-zero count.
        self.rows = rows
        self.coef_rows = [[_ZEROS] * blocks_w for _ in range(rows)]
        self.finished_rows = [[_NO_AC] * blocks_w for _ in range(rows)]
        self.dc_rows = [[0] * blocks_w for _ in range(rows)]
        self.nnz = [[0] * blocks_w for _ in range(rows)]
        self.k_dc = _section_key(index, _SEC_DC)
        self.k_77 = _section_key(index, _SEC_77)
        self.k_edge = _section_key(index, _SEC_EDGE)
        self.k_nnz = _section_key(index, _SEC_NNZ77)
        self.k_count = (_section_key(index, _SEC_NNZ_EDGE),
                        _section_key(index, _SEC_NNZ_EDGE) | 1 << 12)


class SegmentCodec:
    """Codes all blocks of a contiguous MCU range against one model.

    A fresh :class:`SegmentCodec` (and hence fresh model) is created per
    thread segment and per chunk; context neighbours above the segment's
    first block row are treated as absent, which is precisely the
    compression cost of multithreading the paper quantifies (§3.4).
    """

    def __init__(self, frame, quant_tables, coefficients: List[np.ndarray],
                 config: Optional[ModelConfig] = None, model: Optional[Model] = None):
        self.frame = frame
        self.config = config or ModelConfig()
        self.model = model or Model(self.config)
        self._lakhani = self.config.edge_mode == "lakhani"
        self._dc_mode = self.config.dc_mode
        # Every mode but the plain PackJPG pair predicts from neighbour borders.
        self._borders = self._lakhani or self._dc_mode != "packjpg"
        factors = [(c.h, c.v) if frame.interleaved else (1, 1)
                   for c in frame.components]
        # The ring keeps the block rows of one MCU row plus the row above.
        states = [
            ComponentState(ci, coefficients[ci], quant_tables[comp.quant_table_id],
                           factors[ci][1] + 1, self._dc_mode)
            for ci, comp in enumerate(frame.components)
        ]
        self.layout = [(states[ci], factors[ci], dy, dx)
                       for ci, dy, dx in mcu_block_layout(frame)]

    # -- public entry points ------------------------------------------------

    def encode(self, encoder: BoolEncoder, mcu_start: int, mcu_end: int,
               seg_start: Optional[int] = None) -> None:
        """Encode MCUs ``[mcu_start, mcu_end)`` into ``encoder``.

        ``seg_start`` pins the segment's true first MCU when coding an
        incremental sub-range with the same codec (the row-bounded
        streaming path); context visibility must always be computed
        against the segment start, not the sub-range start.
        """
        self._run(encoder, True, mcu_start, mcu_end, seg_start)

    def decode(self, decoder: BoolDecoder, mcu_start: int, mcu_end: int,
               seg_start: Optional[int] = None) -> None:
        """Decode MCUs ``[mcu_start, mcu_end)``, filling coefficient arrays."""
        self._run(decoder, False, mcu_start, mcu_end, seg_start)

    # -- machinery ------------------------------------------------------

    def _run(self, coder, encoding: bool, mcu_start: int, mcu_end: int,
             seg_start: Optional[int] = None) -> None:
        """Code every block of the MCU range.

        A neighbour counts only if its MCU lies inside the current segment
        range: thread segments may decode concurrently (§3.4), and chunks on
        different machines, so context must never reach across a segment
        boundary — on either side of the codec (the determinism rule).
        """
        start = mcu_start if seg_start is None else seg_start
        mcus_x = self.frame.mcus_x
        for mcu in range(mcu_start, mcu_end):
            mcu_y, mcu_x = divmod(mcu, mcus_x)
            up = mcu - mcus_x >= start
            left = mcu_x > 0 and mcu - 1 >= start
            up_left = mcu_x > 0 and mcu - mcus_x - 1 >= start
            for state, (h, v), dy, dx in self.layout:
                has_above = dy > 0 or up
                has_left = dx > 0 or left
                self._code_block(
                    coder, encoding, state, mcu_y * v + dy, mcu_x * h + dx,
                    has_above, has_left,
                    has_above and has_left and (dy > 0 or dx > 0 or up_left))

    def _code_block(self, coder, encoding: bool, st: ComponentState,
                    by: int, bx: int, has_above: bool, has_left: bool,
                    has_above_left: bool) -> None:
        """The one context function: codes block (by, bx) in either direction."""
        bins = self.model.bins
        accounts = self.model.accounts
        code_value = coder.code_value
        code_counter = coder.code_counter
        # ``cur`` is the block's coefficient row, which decoding fills in as
        # it goes (a no-op store when encoding); ``blk`` holds the values to
        # encode, all zero when decoding, where they are ignored.  The
        # neighbours' coefficients come from the ring, as lists.
        cur = st.coefficients[by, bx]
        blk = cur.tolist() if encoding else _ZEROS
        row = by % st.rows
        row_above = (by - 1) % st.rows
        above = st.coef_rows[row_above][bx] if has_above else _ZEROS
        left = st.coef_rows[row][bx - 1] if has_left else _ZEROS
        above_left = (st.coef_rows[row_above][bx - 1]
                      if has_above_left else _ZEROS)

        # --- 7x7 non-zero count (§A.2.1) --------------------------------
        acct = accounts["nnz"] if accounts else None
        n_ctx = ((st.nnz[row_above][bx] if has_above else 0)
                 + (st.nnz[row][bx - 1] if has_left else 0))
        nnz = code_counter(bins, st.k_nnz + _NNZ_KEY[n_ctx >> 1], 6,
                           _nonzeros(blk, _GATHER_77) if encoding else 0, acct)
        if nnz > 49:
            raise FormatError(f"decoded 7x7 non-zero count {nnz} > 49")
        st.nnz[row][bx] = nnz

        # --- 49 interior AC coefficients, zigzag order ------------------
        acct = accounts["7x7"] if accounts else None
        remaining = nnz
        k_77 = st.k_77
        for r in _ORDER_77:
            if not remaining:
                break
            # predictors.weighted_avg_abs, inlined in the hottest loop.
            t = abs(above[r]) + abs(left[r]) + (abs(above_left[r]) >> 1)
            value = code_value(
                bins, k_77 + _ZZ_KEY[r] + (_AVG_KEY[t] if t < 1024 else _AVG_KEY_CAP)
                + _NNZ_KEY[remaining], blk[r], 11, acct)
            if value:
                cur[r] = value
                remaining -= 1

        # --- 7x1 / 1x7 edge coefficients (§A.2.2) ------------------------
        acct = accounts["edge"] if accounts else None
        lakhani = self._lakhani
        q = st.q
        sums = None
        counts = 0
        for orient, rasters in enumerate(_EDGES):
            count = code_counter(bins, st.k_count[orient] + _NNZ_KEY[nnz], 3,
                                 _nonzeros(blk, _GATHER_EDGES[orient])
                                 if encoding else 0, acct)
            counts += count
            # The neighbour's FINISHED outputs, whose edge projections
            # start at ``at``, for a Lakhani prediction.
            neighbour = None
            if lakhani and count and (has_left if orient else has_above):
                if sums is None:
                    sums = (cur @ st.interior).tolist()
                if orient:
                    neighbour, at = st.finished_rows[row][bx - 1], ROW_PROJECTION
                else:
                    neighbour, at = st.finished_rows[row_above][bx], COLUMN_PROJECTION
            remaining = count
            k_edge = st.k_edge + (orient << 21)
            for k, r in enumerate(rasters, start=1):
                if not remaining:
                    break
                if neighbour is not None:
                    # predictors.lakhani_prediction, then the quantisation
                    # step: each rounded half away from zero, inlined.
                    pred = neighbour[at + k] - sums[(orient << 3) + k]
                    pred = ((pred + _HALF_B00) // B00 if pred >= 0
                            else -((_HALF_B00 - pred) // B00))
                    step = q[r]
                    pred = ((pred + (step >> 1)) // step if pred >= 0
                            else -(((step >> 1) - pred) // step))
                    if pred > _EDGE_CLAMP:
                        pred = _EDGE_CLAMP
                    elif pred < -_EDGE_CLAMP:
                        pred = -_EDGE_CLAMP
                else:
                    pred = max(-_EDGE_CLAMP, min(_EDGE_CLAMP, weighted_avg_value(
                        above[r], left[r], above_left[r])))
                value = code_value(
                    bins, k_edge + (k << 18) + _PRED_KEY[pred + _EDGE_CLAMP]
                    + _NNZ_KEY[remaining], blk[r] - pred, 12, acct) + pred
                if value:
                    cur[r] = value
                    remaining -= 1

        # --- DC, last (§A.2.3) -------------------------------------------
        acct = accounts["dc"] if accounts else None
        mode = self._dc_mode
        finished = _NO_AC
        if self._borders and (nnz or counts):
            finished = (cur @ st.finished).tolist()
        if mode == "packjpg":
            # Baseline-PackJPG-style: plain neighbour DC as the prediction.
            pred = left[0] if has_left else above[0]
            conf = 0
        else:
            # Each neighbour's seam terms facing this block, and its DC's
            # share of each.
            above_seams = ((st.finished_rows[row_above][bx][SEAM_BOTTOM:SEAM_RIGHT],
                            st.dc_rows[row_above][bx]) if has_above else None)
            left_seams = ((st.finished_rows[row][bx - 1][SEAM_RIGHT:COLUMN_PROJECTION],
                           st.dc_rows[row][bx - 1]) if has_left else None)
            if mode == "median8":
                pred, spread = dc_prediction_median8(
                    finished, above_seams, left_seams, st.q_dc)
            else:
                _, pred, spread = dc_predictions(
                    finished, above_seams, left_seams, st.q_dc)
            conf = confidence_bucket(spread)
        if pred > _DC_CLAMP:
            pred = _DC_CLAMP
        elif pred < -_DC_CLAMP:
            pred = -_DC_CLAMP
        dc = code_value(bins, st.k_dc + (conf << 8), blk[0] - pred, 14, acct) + pred
        cur[0] = dc

        # --- the finished block, for its neighbours -----------------------
        st.coef_rows[row][bx] = blk if encoding else cur.tolist()
        if self._borders:
            st.finished_rows[row][bx] = finished
            st.dc_rows[row][bx] = dc * st.dc_unit


_ZEROS = (0,) * 64
#: The FINISHED outputs of a block without AC coefficients.
_NO_AC = [0] * FINISHED["gradient"].shape[1]
_HALF_B00 = B00 >> 1


def _nonzeros(blk: List[int], gather) -> int:
    """Non-zero coefficients of ``blk`` among those ``gather`` picks."""
    values = gather(blk)
    return len(values) - values.count(0)
