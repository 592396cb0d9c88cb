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
one integer transform (:data:`~repro.core.predictors.FINISHED`) stores what
the blocks below and to its right need — its border pixel rows and columns
6 and 7 and its Lakhani edge projections — in a per-component ring of
``v + 1`` block rows of int64, so that state, like the coefficient
:class:`~repro.core.rowbuffer.RowWindow`, scales with image width.
"""

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
    BORDER,
    BORDER_COLS,
    BORDER_PIXELS,
    BORDER_ROWS,
    COLUMN_PROJECTION,
    DC_PIXEL,
    FINISHED,
    INTERIOR_SUMS,
    OWN_PIXELS,
    ROW_PROJECTION,
    dc_prediction_median8,
    dc_predictions,
    lakhani_prediction,
    weighted_avg_value,
    _div_round,
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

    def __init__(self, index: int, coefficients, qtable: np.ndarray, rows: int):
        self.coefficients = coefficients  # (blocks_h, blocks_w, 64) int32
        self.q = [int(x) for x in qtable]  # raster
        self.q64 = qtable.astype(np.int64)
        self.q_dc = self.q[0]
        blocks_w = coefficients.shape[1]
        #: Ring of the last ``rows`` block rows: each finished block's
        #: FINISHED border outputs, and its 7x7 non-zero count.
        self.rows = rows
        self.border = np.zeros((rows, blocks_w, BORDER.stop - BORDER.start),
                               dtype=np.int64)
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
                           factors[ci][1] + 1)
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
        range: thread segments decode concurrently, and chunks decode on
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
        coefficients = st.coefficients
        # ``cur`` is the block's coefficient row, which decoding fills in as
        # it goes (a no-op store when encoding); ``blk`` holds the values to
        # encode, all zero when decoding, where they are ignored.
        cur = coefficients[by, bx]
        blk = cur.tolist() if encoding else _ZEROS
        above = coefficients[by - 1, bx].tolist() if has_above else _ZEROS
        left = coefficients[by, bx - 1].tolist() if has_left else _ZEROS
        above_left = (coefficients[by - 1, bx - 1].tolist()
                      if has_above_left else _ZEROS)
        row = by % st.rows
        row_above = (by - 1) % st.rows

        # --- 7x7 non-zero count (§A.2.1) --------------------------------
        acct = accounts["nnz"] if accounts else None
        n_ctx = ((st.nnz[row_above][bx] if has_above else 0)
                 + (st.nnz[row][bx - 1] if has_left else 0))
        nnz = code_counter(bins, st.k_nnz + _NNZ_KEY[n_ctx >> 1], 6,
                           _count(blk, _ORDER_77) if encoding else 0, acct)
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
        sums = None
        counts = 0
        for orient, rasters in enumerate(_EDGES):
            count = code_counter(bins, st.k_count[orient] + _NNZ_KEY[nnz], 3,
                                 _count(blk, rasters) if encoding else 0, acct)
            counts += count
            projection = None
            if lakhani and count and (has_left if orient else has_above):
                if sums is None:
                    sums = (np.multiply(cur, st.q64) @ INTERIOR_SUMS).tolist()
                if orient:
                    projection = st.border[row, bx - 1, ROW_PROJECTION:].tolist()
                else:
                    projection = st.border[row_above, bx,
                                           COLUMN_PROJECTION:ROW_PROJECTION].tolist()
            remaining = count
            k_edge = st.k_edge + (orient << 21)
            for k, r in enumerate(rasters, start=1):
                if not remaining:
                    break
                if projection is not None:
                    pred = _div_round(
                        lakhani_prediction(projection[k], sums[(orient << 3) + k]),
                        st.q[r])
                else:
                    pred = weighted_avg_value(above[r], left[r], above_left[r])
                pred = max(-_EDGE_CLAMP, min(_EDGE_CLAMP, pred))
                value = code_value(
                    bins, k_edge + (k << 18) + _PRED_KEY[pred + _EDGE_CLAMP]
                    + _NNZ_KEY[remaining], blk[r] - pred, 12, acct) + pred
                if value:
                    cur[r] = value
                    remaining -= 1

        # --- DC, last (§A.2.3) -------------------------------------------
        acct = accounts["dc"] if accounts else None
        mode = self._dc_mode
        finished = None
        if self._borders and (nnz or counts):
            deq = np.multiply(cur, st.q64)
            deq[0] = 0
            finished = deq @ FINISHED
        if mode == "packjpg":
            # Baseline-PackJPG-style: plain neighbour DC as the prediction.
            pred = left[0] if has_left else above[0]
            conf = 0
        else:
            own = finished[OWN_PIXELS].tolist() if finished is not None else _ZEROS
            above_px = (st.border[row_above, bx, BORDER_ROWS].tolist()
                        if has_above else None)
            left_px = (st.border[row, bx - 1, BORDER_COLS].tolist()
                       if has_left else None)
            if mode == "median8":
                pred, spread = dc_prediction_median8(own, above_px, left_px, st.q_dc)
            else:
                _, pred, spread = dc_predictions(own, above_px, left_px, st.q_dc)
            conf = confidence_bucket(spread)
        pred = max(-_DC_CLAMP, min(_DC_CLAMP, pred))
        dc = code_value(bins, st.k_dc + (conf << 8), blk[0] - pred, 14, acct) + pred
        cur[0] = dc

        # --- the finished block, for its neighbours -----------------------
        if self._borders:
            border = st.border[row, bx]
            if finished is None:
                border[:] = 0
            else:
                border[:] = finished[BORDER]
            border[BORDER_PIXELS] += DC_PIXEL * dc * st.q_dc


_ZEROS = (0,) * 64


def _count(blk: List[int], rasters: List[int]) -> int:
    """Non-zero coefficients of ``blk`` among ``rasters``."""
    return sum(1 for r in rasters if blk[r])
