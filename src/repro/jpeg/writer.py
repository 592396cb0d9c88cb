"""A from-scratch baseline JPEG encoder.

The paper evaluated Lepton on hundreds of thousands of real user JPEGs; this
encoder exists to synthesise an equivalent corpus offline.  It produces
standards-compliant baseline files (SOF0, Annex-K tables, JFIF APP0,
optional 4:2:0 subsampling and restart intervals) that exercise every path
of the parser/scan codec and of Lepton itself.  Its segment writers are
the substrate's only ones: the progressive encoder builds its files with
them too.
"""

import struct
from typing import List, Optional

import numpy as np

from repro.jpeg import markers as M
from repro.jpeg.components import Component, FrameInfo, ScanInfo
from repro.jpeg.dct import fdct2
from repro.jpeg.huffman import (
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
)
from repro.jpeg.parser import JpegImage
from repro.jpeg.quant import quality_tables
from repro.jpeg.scan_encode import encode_scan
from repro.jpeg.zigzag import to_zigzag


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """JFIF full-range RGB → YCbCr conversion; returns float64 planes."""
    rgb = rgb.astype(np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


def _pad_to(plane: np.ndarray, height: int, width: int) -> np.ndarray:
    """Edge-replicate a plane up to (height, width)."""
    pad_y = height - plane.shape[0]
    pad_x = width - plane.shape[1]
    if pad_y or pad_x:
        plane = np.pad(plane, ((0, pad_y), (0, pad_x)), mode="edge")
    return plane


def _subsample(plane: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
    """Box-average downsampling by integer factors."""
    if factor_y == 1 and factor_x == 1:
        return plane
    h, w = plane.shape
    h2, w2 = (h + factor_y - 1) // factor_y, (w + factor_x - 1) // factor_x
    plane = _pad_to(plane, h2 * factor_y, w2 * factor_x)
    return plane.reshape(h2, factor_y, w2, factor_x).mean(axis=(1, 3))


def _plane_to_coefficients(plane: np.ndarray, qtable: np.ndarray,
                           blocks_h: int, blocks_w: int) -> np.ndarray:
    """Level-shift, block, FDCT, and quantise a plane → (bh, bw, 64) int32."""
    plane = _pad_to(plane, blocks_h * 8, blocks_w * 8) - 128.0
    blocks = plane.reshape(blocks_h, 8, blocks_w, 8).transpose(0, 2, 1, 3)
    coeffs = fdct2(blocks)
    q = qtable.reshape(8, 8)
    quantised = np.round(coeffs / q).astype(np.int32)
    return quantised.reshape(blocks_h, blocks_w, 64)


def _segment(marker: int, payload: bytes) -> bytes:
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def _jfif_app0() -> bytes:
    return _segment(M.APP0, b"JFIF\x00" + bytes([1, 1, 0, 0, 1, 0, 1, 0, 0]))


def _dqt_segment(table_id: int, qtable: np.ndarray) -> bytes:
    payload = bytes([table_id]) + bytes(int(v) for v in to_zigzag(qtable))
    return _segment(M.DQT, payload)


def _sof_segment(marker: int, frame: FrameInfo) -> bytes:
    payload = bytearray(struct.pack(">BHHB", 8, frame.height, frame.width,
                                    len(frame.components)))
    for comp in frame.components:
        payload.extend([comp.component_id, (comp.h << 4) | comp.v,
                        comp.quant_table_id])
    return _segment(marker, bytes(payload))


def _sos_segment(frame: FrameInfo, components, band=(0, 63)) -> bytes:
    """An SOS coding the spectral ``band`` of ``components``, each
    ``(index, dc_table, ac_table)`` as :func:`~repro.jpeg.parser.scan_header`
    reads them back."""
    payload = bytearray([len(components)])
    for ci, dc_table, ac_table in components:
        payload.extend([frame.components[ci].component_id,
                        (dc_table << 4) | ac_table])
    payload.extend([*band, 0])
    return _segment(M.SOS, bytes(payload))


def encode_baseline_jpeg(
    pixels: np.ndarray,
    quality: int = 85,
    subsampling: str = "4:4:4",
    restart_interval: int = 0,
    comment: Optional[bytes] = None,
    trailer: bytes = b"",
) -> bytes:
    """Encode an image array as a baseline JPEG file.

    Parameters
    ----------
    pixels:
        ``(H, W)`` uint8 for grayscale or ``(H, W, 3)`` uint8 RGB.
    quality:
        libjpeg-style quality factor, 1..100.
    subsampling:
        ``"4:4:4"`` or ``"4:2:0"`` (ignored for grayscale).
    restart_interval:
        If nonzero, emit a DRI segment and RST markers every N MCUs.
    comment:
        Optional COM-segment payload (exercises header preservation).
    trailer:
        Raw bytes appended after EOI (the §A.3 "arbitrary data at the end
        of the file" case, e.g. concatenated thumbnails).
    """
    pixels = np.asarray(pixels)
    grayscale = pixels.ndim == 2
    cmyk = pixels.ndim == 3 and pixels.shape[2] == 4
    if not grayscale and not cmyk and (pixels.ndim != 3 or pixels.shape[2] != 3):
        raise ValueError(
            "pixels must be (H, W) grayscale, (H, W, 3) RGB, or (H, W, 4) CMYK"
        )
    height, width = pixels.shape[:2]
    if height == 0 or width == 0:
        raise ValueError("empty image")
    luma_q, chroma_q = quality_tables(quality)

    frame = FrameInfo(precision=8, height=height, width=width)
    if grayscale:
        frame.components.append(Component(1, 1, 1, 0, dc_table_id=0, ac_table_id=0))
        planes = [pixels.astype(np.float64)]
        qtables = {0: luma_q}
    elif cmyk:
        # Four unsubsampled planes stored directly (Adobe transform 0) —
        # the file production Lepton rejects as "4 color CMYK" (§6.2) but
        # the extended path can compress.
        for cid in range(1, 5):
            frame.components.append(Component(cid, 1, 1, 0, 0, 0))
        planes = [pixels[..., i].astype(np.float64) for i in range(4)]
        qtables = {0: luma_q}
    else:
        if subsampling == "4:4:4":
            ch = cv = 1
        elif subsampling == "4:2:0":
            ch = cv = 2
        else:
            raise ValueError(f"unsupported subsampling {subsampling!r}")
        frame.components.append(Component(1, ch, cv, 0, 0, 0))
        frame.components.append(Component(2, 1, 1, 1, 1, 1))
        frame.components.append(Component(3, 1, 1, 1, 1, 1))
        ycc = rgb_to_ycbcr(pixels)
        planes = [
            ycc[..., 0],
            _subsample(ycc[..., 1], cv, ch),
            _subsample(ycc[..., 2], cv, ch),
        ]
        qtables = {0: luma_q, 1: chroma_q}
    frame.finalise()

    coefficients: List[np.ndarray] = []
    for comp, plane in zip(frame.components, planes):
        coefficients.append(
            _plane_to_coefficients(
                plane, qtables[comp.quant_table_id], comp.blocks_h, comp.blocks_w
            )
        )

    header = bytearray(b"\xFF\xD8")
    header += _jfif_app0()
    if comment is not None:
        header += _segment(M.COM, comment)
    header += _dqt_segment(0, luma_q)
    if not grayscale and not cmyk:
        header += _dqt_segment(1, chroma_q)
    header += _sof_segment(M.SOF0, frame)
    header += _segment(M.DHT, STD_DC_LUMA.dht_payload(0, 0))
    header += _segment(M.DHT, STD_AC_LUMA.dht_payload(1, 0))
    huffman_tables = {(0, 0): STD_DC_LUMA, (1, 0): STD_AC_LUMA}
    if not grayscale and not cmyk:
        header += _segment(M.DHT, STD_DC_CHROMA.dht_payload(0, 1))
        header += _segment(M.DHT, STD_AC_CHROMA.dht_payload(1, 1))
        huffman_tables[(0, 1)] = STD_DC_CHROMA
        huffman_tables[(1, 1)] = STD_AC_CHROMA
    if restart_interval:
        header += _segment(M.DRI, struct.pack(">H", restart_interval))
    header += _sos_segment(frame, [(ci, c.dc_table_id, c.ac_table_id)
                                   for ci, c in enumerate(frame.components)])

    scan_info = ScanInfo(list(range(len(frame.components))))
    rst_count = 0
    if restart_interval:
        rst_count = (frame.mcu_count - 1) // restart_interval
    img = JpegImage(
        header_bytes=bytes(header),
        frame=frame,
        scan=scan_info,
        quant_tables=qtables,
        huffman_tables=huffman_tables,
        restart_interval=restart_interval,
        scan_start=len(header),
        scan_data=b"",
        trailer_bytes=b"",
        pad_bit=0,
        rst_count=rst_count,
        coefficients=coefficients,
    )
    scan_bytes, _ = encode_scan(img)
    return bytes(header) + scan_bytes + b"\xFF\xD9" + trailer
