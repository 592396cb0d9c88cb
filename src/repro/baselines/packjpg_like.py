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

from typing import List

import numpy as np

from repro.baselines.container import front_end, pack, restore, unpack
from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.coefcoder import SegmentCodec
from repro.core.errors import FormatError
from repro.core.model import Model, ModelConfig, pred_bucket
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


def _code(coder, img, mode: str) -> None:
    """Code ``img``'s coefficients in ``mode``, in either direction: like
    ``_code_bands`` and ``SegmentCodec``, one dispatch serves both."""
    if mode == "planar":
        _code_bands(coder, Model().bins, img.coefficients)
        return
    codec = SegmentCodec(img.frame, img.quant_tables, img.coefficients,
                         _MODE_MODEL[mode])
    run = codec.encode if isinstance(coder, BoolEncoder) else codec.decode
    run(coder, 0, img.frame.mcu_count)


def compress(data: bytes, mode: str = "latest") -> bytes:
    """Compress a baseline JPEG; raises the repro.jpeg errors on rejects.

    Whatever the mode, the result is a *global* format: one model over the
    whole file, one thread, nothing decodable until everything is decoded.
    The mode's index leads the stored meta.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    img = front_end(data, "packjpg-like")
    encoder = BoolEncoder()
    _code(encoder, img, mode)
    return pack(MAGIC, img, encoder.finish(), head=bytes([MODES.index(mode)]))


def decompress(payload: bytes) -> bytes:
    """Recover the exact original JPEG bytes (single-threaded, whole file)."""
    img, coded, (mode_idx,), _ = unpack(payload, MAGIC, "packjpg-like", head=1)
    if mode_idx >= len(MODES):
        raise FormatError(f"unknown packjpg-like mode {mode_idx}")
    _code(BoolDecoder(coded), img, MODES[mode_idx])
    return restore(img)
