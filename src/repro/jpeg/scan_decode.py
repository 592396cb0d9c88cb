"""Decode the baseline Huffman entropy scan into coefficient arrays.

The decoder walks MCUs in scan order and fills one int32 array of shape
``(blocks_h, blocks_w, 64)`` per component (raster coefficient order within
each block).  It also recovers the two pieces of non-coefficient state that
byte-exact reconstruction needs (§A.3): the pad bit used to fill partial
bytes, and the number of restart markers actually present (files corrupted
by trailing zero-runs drop their RST markers; Lepton records the count so
re-encoding stops inserting them at the right point).
"""

from typing import List

import numpy as np

from repro.jpeg.bitio import BitReader
from repro.jpeg.errors import JpegError, UnsupportedJpegError
from repro.jpeg.parser import JpegImage
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

MAX_DC_CATEGORY = 11
MAX_AC_CATEGORY = 10


def extend(value: int, size: int) -> int:
    """Sign-extend a JPEG magnitude-category value (T.81 F.2.2.1 EXTEND)."""
    if size == 0:
        return 0
    if value < (1 << (size - 1)):
        return value - (1 << size) + 1
    return value


def mcu_block_layout(frame) -> List[tuple]:
    """The per-MCU block visit order: ``(comp_index, dy, dx)`` tuples."""
    layout = []
    if frame.interleaved:
        for ci, comp in enumerate(frame.components):
            for dy in range(comp.v):
                for dx in range(comp.h):
                    layout.append((ci, dy, dx))
    else:
        layout.append((0, 0, 0))
    return layout


def decode_scan(img: JpegImage) -> List[np.ndarray]:
    """Decode ``img.scan_data``; fills ``img.coefficients`` and returns it.

    Raises :class:`UnsupportedJpegError` for out-of-range coefficient
    categories and :class:`JpegError` / :class:`TruncatedJpegError` for
    streams that cannot be parsed.
    """
    frame = img.frame
    reader = BitReader(img.scan_data)
    read_bits = reader.read_bits
    coeffs = [
        np.zeros((c.blocks_h, c.blocks_w, 64), dtype=np.int32)
        for c in frame.components
    ]
    # Per layout entry: the component's coefficients as one flat array
    # (a block's 64 values start at (by * blocks_w + bx) * 64), the
    # block offsets of its MCU, and its two table decoders.
    blocks = []
    for ci, dy, dx in mcu_block_layout(frame):
        comp = frame.components[ci]
        v, h = (comp.v, comp.h) if frame.interleaved else (1, 1)
        blocks.append((
            ci, coeffs[ci].reshape(-1), comp.blocks_w, v, h, dy, dx,
            img.dc_huffman(comp).decode_symbol,
            img.ac_huffman(comp).decode_symbol,
        ))
    dc_pred = [0] * len(frame.components)
    pad_bits_seen = []
    rst_count = 0
    rst_expected = img.restart_interval
    mcus_x = frame.mcus_x
    zz = [int(r) for r in ZIGZAG_TO_RASTER]

    for mcu in range(frame.mcu_count):
        if rst_expected and mcu > 0 and mcu % rst_expected == 0:
            # Peek for a restart marker: drain pad bits, then check for RSTn.
            # A missing marker (zero-run corruption, §A.3) means the stream
            # simply continues — rewind nothing, just stop counting.
            pending = reader.bits_pending
            saved = (reader._pos, reader._acc, reader._nacc)
            pad = reader.read_bits(pending) if pending else 0
            if reader.expect_rst(rst_count):
                if pending:
                    pad_bits_seen.append((pad, pending))
                rst_count += 1
                dc_pred = [0] * len(frame.components)
            else:
                reader._pos, reader._acc, reader._nacc = saved
        mcu_y, mcu_x = divmod(mcu, mcus_x)
        for ci, flat, blocks_w, v, h, dy, dx, dc_symbol, ac_symbol in blocks:
            base = ((mcu_y * v + dy) * blocks_w + mcu_x * h + dx) << 6
            # DC coefficient: category + sign-extended diff from predictor.
            size = dc_symbol(reader)
            if size > MAX_DC_CATEGORY:
                raise UnsupportedJpegError(
                    f"DC category {size} out of baseline range", reason="ac_out_of_range"
                )
            if size:
                diff = read_bits(size)
                if diff < 1 << (size - 1):  # EXTEND, inlined
                    diff += 1 - (1 << size)
                dc_pred[ci] += diff
            flat[base] = dc_pred[ci]
            # AC coefficients: (run, size) symbols in zigzag order.
            k = 1
            while k < 64:
                rs = ac_symbol(reader)
                size = rs & 0x0F
                if size == 0:
                    if rs >> 4 == 15:  # ZRL: sixteen zeros
                        k += 16
                        continue
                    break  # EOB
                k += rs >> 4
                if k > 63:
                    raise JpegError("AC run overruns block")
                if size > MAX_AC_CATEGORY:
                    raise UnsupportedJpegError(
                        f"AC category {size} out of baseline range",
                        reason="ac_out_of_range",
                    )
                value = read_bits(size)
                if value < 1 << (size - 1):
                    value += 1 - (1 << size)
                flat[base + zz[k]] = value
                k += 1

    # Remaining bits of the final byte are padding before the EOI marker.
    pending = reader.bits_pending
    if pending:
        pad_bits_seen.append((reader.read_bits(pending), pending))
    if reader.byte_position != len(img.scan_data):
        raise JpegError(
            f"scan has {len(img.scan_data) - reader.byte_position} trailing bytes"
        )

    # Infer the pad bit: encoders use all-zeros or all-ones fill (§A.3).
    pad_bit = 0
    for value, nbits in pad_bits_seen:
        if value == (1 << nbits) - 1:
            pad_bit = 1
            break
        if value == 0:
            pad_bit = 0
            break
    img.pad_bit = pad_bit
    img.rst_count = rst_count
    img.coefficients = coeffs
    return coeffs
