"""MozJPEG-arithmetic stand-in: spec-style coding with ~300 bins (§3.2).

The JPEG specification's arithmetic extension uses a small conditioning
set — roughly 300 statistics bins — with no neighbouring-block context for
AC coefficients.  This module codes DC diffs and AC values with exactly
that flavour of context (magnitude-category trees per zigzag index group),
using our range coder.  It demonstrates the paper's Figure 1 point: small
bin counts cost roughly 10 percentage points of savings versus Lepton's
721k-bin model, while remaining pixel- and file-preserving here.
"""

from typing import List

import numpy as np

from repro.baselines.container import front_end, pack, restore, unpack
from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.model import Model
from repro.jpeg.scan_decode import mcu_block_layout
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

MAGIC = b"MA"

# Zigzag positions are grouped into 5 frequency bands (the spec's low/high
# conditioning); together with the DC category tree this yields a bin count
# in the low hundreds.
_BAND_OF = [0] * 64
for _k in range(64):
    if _k == 0:
        _BAND_OF[_k] = 0
    elif _k <= 5:
        _BAND_OF[_k] = 1
    elif _k <= 14:
        _BAND_OF[_k] = 2
    elif _k <= 27:
        _BAND_OF[_k] = 3
    else:
        _BAND_OF[_k] = 4


def _dc_category(diff: int) -> int:
    mag = abs(diff).bit_length()
    return min(mag, 5)


#: Raster indices of the AC coefficients in zigzag order.
_AC_RASTER = ZIGZAG_TO_RASTER[1:]


def _key(ci: int, section: int, context: int) -> int:
    """Context key: DC diff (0), end-of-band flag (1) or AC value (2)."""
    return ((((ci << 2) | section) << 3) | context) << 8


def _code_image(coder, bins, frame, coefficients: List[np.ndarray]) -> None:
    """Code every block in scan order; one loop serves both directions (an
    encoder codes the arrays' values, a decoder fills the arrays in)."""
    layout = mcu_block_layout(frame)
    dc_prev_diff = [0] * len(frame.components)
    dc_pred = [0] * len(frame.components)
    for mcu in range(frame.mcu_count):
        mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
        for ci, dy, dx in layout:
            comp = frame.components[ci]
            by = mcu_y * (comp.v if frame.interleaved else 1) + dy
            bx = mcu_x * (comp.h if frame.interleaved else 1) + dx
            block = coefficients[ci][by, bx]
            # DC: code the diff, conditioned on the previous diff's category
            # (the spec's DC conditioning).
            ctx = _dc_category(dc_prev_diff[ci])
            diff = coder.code_value(bins, _key(ci, 0, ctx),
                                    int(block[0]) - dc_pred[ci], 13)
            dc_pred[ci] += diff
            block[0] = dc_pred[ci]
            dc_prev_diff[ci] = diff
            # AC: end-of-band flag then value, per frequency band.
            nonzero = np.flatnonzero(block[_AC_RASTER])
            last_nz = int(nonzero[-1]) + 1 if nonzero.size else 0
            k = 1
            while k <= 63:
                band = _BAND_OF[k]
                if coder.code_counter(bins, _key(ci, 1, band), 1, int(k > last_nz)):
                    break
                r = int(ZIGZAG_TO_RASTER[k])
                block[r] = coder.code_value(bins, _key(ci, 2, band), int(block[r]), 11)
                k += 1


def compress(data: bytes) -> bytes:
    """Compress a baseline JPEG with the small-bin arithmetic model."""
    img = front_end(data, "mozjpeg-arith")
    encoder = BoolEncoder()
    _code_image(encoder, Model().bins, img.frame, img.coefficients)
    return pack(MAGIC, img, encoder.finish())


def decompress(payload: bytes) -> bytes:
    """Recover the exact original bytes."""
    img, coded, _, _ = unpack(payload, MAGIC, "mozjpeg-arith")
    _code_image(BoolDecoder(coded), Model().bins, img.frame, img.coefficients)
    return restore(img)
