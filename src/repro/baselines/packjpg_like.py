"""PackJPG-style compression: globally sorted coefficient coding (§2).

PackJPG's signature technique is "re-arranging all of the compressed pixel
values in the file in a globally sorted order" before arithmetic coding —
here realised as planar band order: for each component, all blocks' values
of zigzag position 0, then all of position 1, and so on.  Placing an entire
band in one context lets a *single* global model adapt extremely well,
matching Lepton's ratio.

The price is exactly the paper's point: this is a whole-file global
operation.  Encoding and decoding are single-threaded, nothing can stream
(no JPEG byte can be emitted until every band is decoded), and the full
coefficient set lives in memory — which is why Dropbox could not use it.
"""

import struct
import zlib
from typing import List

import numpy as np

from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.coefcoder import SegmentCodec
from repro.core.errors import FormatError
from repro.core.model import Model, ModelConfig, pred_bucket
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan
from repro.jpeg.scan_encode import encode_scan
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

MAGIC = b"PJ"

#: Model used per mode.  "latest" mirrors the current PackJPG release, which
#: the paper benchmarks and which "matches the compression efficiency" of
#: Lepton (footnote 3: it has unpublished improvements over the 2007
#: paper).  "2007" is baseline PackJPG for the §4.3 ablation: the same
#: weighted-average prediction for every AC coefficient and no DC gradient
#: search.  "planar" is the illustrative globally-sorted band coder.
MODES = ("latest", "2007", "planar")
_MODE_MODEL = {
    "latest": ModelConfig(),
    "2007": ModelConfig(edge_mode="avg", dc_mode="packjpg"),
}


def _band_group(k: int) -> int:
    """Collapse zigzag positions into coarse bands so contexts adapt fast."""
    if k < 10:
        return k
    if k < 28:
        return 10 + (k - 10) // 3
    return 16 + (k - 28) // 9


def _band_key(ci: int, group: int, prev_bucket: int, above_bucket: int) -> int:
    """Context key of a band value: its 256 bins sit above the low byte."""
    key = (ci << 7) | group
    key = (key << 5) | (prev_bucket + 11)
    key = (key << 5) | (above_bucket + 11)
    return key << 8


def _code_bands(coder, bins, coefficients: List[np.ndarray]) -> None:
    """Code every component's coefficients in planar (band) order.

    DC is delta-coded against the previous block in the band; AC values are
    coded under contexts built from the previous value in the band and the
    value one block-row up — the "similar values grouped together" effect of
    PackJPG's global sort, with a single model adapting over the whole file.
    As in :mod:`repro.core.coefcoder`, one loop serves both directions: an
    encoder codes the arrays' values, a decoder fills the arrays in.
    """
    for ci, comp in enumerate(coefficients):
        blocks_h, blocks_w = comp.shape[:2]
        for k in range(64):
            r = int(ZIGZAG_TO_RASTER[k])
            group = _band_group(k)
            prev = 0
            for by in range(blocks_h):
                for bx in range(blocks_w):
                    above = int(comp[by - 1, bx, r]) if by > 0 else 0
                    value = int(comp[by, bx, r])
                    if k == 0:
                        # DC band: delta against the planar predecessor,
                        # contexted by the above-row delta size (group 64).
                        key = _band_key(ci, 64, pred_bucket(above - prev), 0)
                        value = coder.code_value(bins, key, value - prev, 13) + prev
                    else:
                        key = _band_key(ci, group, pred_bucket(prev),
                                        pred_bucket(above))
                        value = coder.code_value(bins, key, value, 12)
                    comp[by, bx, r] = value
                    prev = value


def compress(data: bytes, mode: str = "latest") -> bytes:
    """Compress a baseline JPEG; raises the repro.jpeg errors on rejects.

    Whatever the mode, the result is a *global* format: one model over the
    whole file, one thread, nothing decodable until everything is decoded.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    img = parse_jpeg(data)
    decode_scan(img)
    scan_bytes, _ = encode_scan(img)
    if scan_bytes != img.scan_data:
        raise FormatError("packjpg-like: scan does not round-trip")
    encoder = BoolEncoder()
    if mode == "planar":
        _code_bands(encoder, Model().bins, img.coefficients)
    else:
        codec = SegmentCodec(
            img.frame, img.quant_tables, img.coefficients, _MODE_MODEL[mode]
        )
        codec.encode(encoder, 0, img.frame.mcu_count)
    coded = encoder.finish()
    meta = bytearray()
    meta += struct.pack("<B", MODES.index(mode))
    meta += struct.pack("<I", len(img.header_bytes))
    meta += img.header_bytes
    meta += struct.pack("<BI", img.pad_bit or 0, img.rst_count)
    meta += struct.pack("<I", len(img.trailer_bytes))
    meta += img.trailer_bytes
    zmeta = zlib.compress(bytes(meta), 9)
    return MAGIC + struct.pack("<II", len(zmeta), len(coded)) + zmeta + coded


def decompress(payload: bytes) -> bytes:
    """Recover the exact original JPEG bytes (single-threaded, whole file)."""
    if payload[:2] != MAGIC:
        raise FormatError("not a packjpg-like payload")
    zlen, clen = struct.unpack_from("<II", payload, 2)
    offset = 10
    meta = zlib.decompress(payload[offset : offset + zlen])
    offset += zlen
    coded = payload[offset : offset + clen]

    pos = 0
    (mode_idx,) = struct.unpack_from("<B", meta, pos)
    pos += 1
    if mode_idx >= len(MODES):
        raise FormatError(f"unknown packjpg-like mode {mode_idx}")
    mode = MODES[mode_idx]
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
    if mode == "planar":
        _code_bands(BoolDecoder(coded), Model().bins, img.coefficients)
    else:
        codec = SegmentCodec(
            img.frame, img.quant_tables, img.coefficients, _MODE_MODEL[mode]
        )
        codec.decode(BoolDecoder(coded), 0, img.frame.mcu_count)
    scan_bytes, _ = encode_scan(img)
    return header + scan_bytes + trailer
