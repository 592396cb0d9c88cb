"""MozJPEG-arithmetic stand-in: spec-style coding with ~300 bins (§3.2).

The JPEG specification's arithmetic extension uses a small conditioning
set — roughly 300 statistics bins — with no neighbouring-block context for
AC coefficients.  This module codes DC diffs and AC values with exactly
that flavour of context (magnitude-category trees per zigzag index group),
using our range coder.  It demonstrates the paper's Figure 1 point: small
bin counts cost roughly 10 percentage points of savings versus Lepton's
721k-bin model, while remaining pixel- and file-preserving here.
"""

import struct
import zlib
from typing import List

import numpy as np

from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.errors import FormatError
from repro.core.model import Model
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan, mcu_block_layout
from repro.jpeg.scan_encode import encode_scan
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
    img = parse_jpeg(data)
    decode_scan(img)
    scan_bytes, _ = encode_scan(img)
    if scan_bytes != img.scan_data:
        raise FormatError("mozjpeg-arith: scan does not round-trip")
    encoder = BoolEncoder()
    _code_image(encoder, Model().bins, img.frame, img.coefficients)
    coded = encoder.finish()
    meta = bytearray()
    meta += struct.pack("<I", len(img.header_bytes))
    meta += img.header_bytes
    meta += struct.pack("<BI", img.pad_bit or 0, img.rst_count)
    meta += struct.pack("<I", len(img.trailer_bytes))
    meta += img.trailer_bytes
    zmeta = zlib.compress(bytes(meta), 9)
    return MAGIC + struct.pack("<II", len(zmeta), len(coded)) + zmeta + coded


def decompress(payload: bytes) -> bytes:
    """Recover the exact original bytes."""
    if payload[:2] != MAGIC:
        raise FormatError("not a mozjpeg-arith payload")
    zlen, clen = struct.unpack_from("<II", payload, 2)
    offset = 10
    meta = zlib.decompress(payload[offset : offset + zlen])
    offset += zlen
    coded = payload[offset : offset + clen]
    pos = 0
    (hlen,) = struct.unpack_from("<I", meta, pos)
    pos += 4
    header = meta[pos : pos + hlen]
    pos += hlen
    pad_bit, rst_count = struct.unpack_from("<BI", meta, pos)
    pos += 5
    (tlen,) = struct.unpack_from("<I", meta, pos)
    pos += 4
    trailer = meta[pos : pos + tlen]
    img = parse_jpeg(header)
    img.pad_bit = pad_bit
    img.rst_count = rst_count
    img.coefficients = [
        np.zeros((c.blocks_h, c.blocks_w, 64), dtype=np.int32)
        for c in img.frame.components
    ]
    _code_image(BoolDecoder(coded), Model().bins, img.frame, img.coefficients)
    scan_bytes, _ = encode_scan(img)
    return header + scan_bytes + trailer
