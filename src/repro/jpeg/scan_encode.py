"""Re-encode coefficient arrays into a byte-exact baseline Huffman scan.

This is the half of Lepton that runs on every chunk download: arithmetic
decoding recovers the coefficients, and this module turns them back into the
user's original Huffman-coded bytes.  It supports resuming from an arbitrary
MCU with a Lepton "Huffman handover word" (partial byte, bit alignment, DC
predictors, restart-marker count — §3.4), which is what makes multithreaded
segment output and independent 4-MiB chunk decoding possible.
"""

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.jpeg.bitio import BitWriter
from repro.jpeg.errors import JpegError
from repro.jpeg.parser import JpegImage
from repro.jpeg.scan_decode import mcu_block_layout
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

#: Raster indices of the 63 AC coefficients in zigzag order.
_AC_ORDER = [int(r) for r in ZIGZAG_TO_RASTER[1:]]


@dataclass(frozen=True)
class ScanPosition:
    """Encoder state captured at an MCU boundary (a handover word's payload).

    ``byte_offset`` counts complete scan bytes emitted before this MCU's
    first bit; the first ``partial_bits`` bits of the next byte are
    ``partial_byte``'s high bits.
    """

    mcu: int
    byte_offset: int
    partial_byte: int
    partial_bits: int
    dc_pred: Tuple[int, ...]
    rst_emitted: int


class ScanEncoder:
    """Incremental Huffman scan encoder with handover support."""

    def __init__(
        self,
        img: JpegImage,
        coefficients: Optional[List[np.ndarray]] = None,
        start_mcu: int = 0,
        dc_pred: Optional[Tuple[int, ...]] = None,
        rst_emitted: int = 0,
        partial_byte: int = 0,
        partial_bits: int = 0,
        record_positions: bool = False,
    ):
        self.img = img
        self.frame = img.frame
        self.coefficients = coefficients if coefficients is not None else img.coefficients
        if not self.coefficients:
            raise JpegError("no coefficients to encode")
        self.writer = BitWriter(partial_byte=partial_byte, partial_bits=partial_bits)
        self.dc_tables = [img.dc_huffman(c) for c in self.frame.components]
        self.ac_tables = [img.ac_huffman(c) for c in self.frame.components]
        # Per layout entry: the component, its coefficients, and the block
        # offsets inside an MCU.
        self._blocks = []
        for ci, dy, dx in mcu_block_layout(self.frame):
            comp = self.frame.components[ci]
            v, h = (comp.v, comp.h) if self.frame.interleaved else (1, 1)
            self._blocks.append((ci, self.coefficients[ci], v, h, dy, dx))
        self.dc_pred = list(dc_pred) if dc_pred else [0] * len(self.frame.components)
        self.rst_emitted = rst_emitted
        self.mcu = start_mcu
        self.pad_bit = img.pad_bit or 0
        self.positions: List[ScanPosition] = []
        self._record = record_positions
        if record_positions:
            self._record_position()

    def _record_position(self) -> None:
        partial_byte, partial_bits = self.writer.partial_state
        self.positions.append(
            ScanPosition(
                mcu=self.mcu,
                byte_offset=self.writer.bytes_emitted,
                partial_byte=partial_byte,
                partial_bits=partial_bits,
                dc_pred=tuple(self.dc_pred),
                rst_emitted=self.rst_emitted,
            )
        )

    def position(self) -> ScanPosition:
        """Current encoder state as a handover-word payload."""
        partial_byte, partial_bits = self.writer.partial_state
        return ScanPosition(
            mcu=self.mcu,
            byte_offset=self.writer.bytes_emitted,
            partial_byte=partial_byte,
            partial_bits=partial_bits,
            dc_pred=tuple(self.dc_pred),
            rst_emitted=self.rst_emitted,
        )

    def encode_to(self, end_mcu: int) -> None:
        """Encode MCUs ``[self.mcu, end_mcu)``."""
        interval = self.img.restart_interval
        rst_limit = self.img.rst_count
        writer = self.writer
        mcus_x = self.frame.mcus_x
        encode_block = self._encode_block
        while self.mcu < end_mcu:
            mcu_y, mcu_x = divmod(self.mcu, mcus_x)
            for ci, coefficients, v, h, dy, dx in self._blocks:
                encode_block(ci, coefficients[mcu_y * v + dy, mcu_x * h + dx])
            self.mcu += 1
            # Restart markers are emitted as part of the *preceding* MCU, so
            # that stopping at any MCU boundary produces exactly the bytes up
            # to that boundary's handover position — the property segment
            # concatenation and chunk trimming rely on.
            if (
                interval
                and self.mcu % interval == 0
                and self.rst_emitted < rst_limit
            ):
                writer.pad_to_byte(self.pad_bit)
                writer.emit_marker(0xD0 + (self.rst_emitted & 7))
                self.rst_emitted += 1
                self.dc_pred = [0] * len(self.dc_pred)
            if self._record:
                self._record_position()

    def _encode_block(self, ci: int, block: np.ndarray) -> None:
        """Huffman-code one block and hand it to the writer in one call."""
        coefs = block.tolist()
        # DC: the category of the diff against the running predictor, its
        # code word, then its magnitude bits.
        dc = coefs[0]
        diff = dc - self.dc_pred[ci]
        self.dc_pred[ci] = dc
        size = abs(diff).bit_length()
        table = self.dc_tables[ci]
        code, length = table.codes[size] or table.encode_symbol(size)
        word = (code << size) | (diff if diff >= 0 else diff + (1 << size) - 1)
        nbits = length + size
        # AC: (run, size) symbols over the zigzag order.
        table = self.ac_tables[ci]
        codes = table.codes
        run = 0
        for r in _AC_ORDER:
            value = coefs[r]
            if not value:
                run += 1
                continue
            while run > 15:
                code, length = codes[0xF0] or table.encode_symbol(0xF0)  # ZRL
                word = (word << length) | code
                nbits += length
                run -= 16
            size = abs(value).bit_length()
            symbol = (run << 4) | size
            code, length = codes[symbol] or table.encode_symbol(symbol)
            word = (((word << length) | code) << size) | (
                value if value >= 0 else value + (1 << size) - 1)
            nbits += length + size
            run = 0
        if run:
            code, length = codes[0x00] or table.encode_symbol(0x00)  # EOB
            word = (word << length) | code
            nbits += length
        self.writer.write_bits(word, nbits)

    def finish(self) -> bytes:
        """Pad the final byte and return all bytes this encoder produced."""
        self.writer.pad_to_byte(self.pad_bit)
        return self.writer.getvalue()

    def emitted_bytes(self) -> bytes:
        """Complete bytes so far, without padding (mid-file segments)."""
        return self.writer.getvalue()

    def drain(self) -> bytes:
        """Take and release the bytes buffered so far (bounded streaming)."""
        return self.writer.drain()


def encode_scan(
    img: JpegImage,
    coefficients: Optional[List[np.ndarray]] = None,
    record_positions: bool = False,
) -> Tuple[bytes, List[ScanPosition]]:
    """Encode the full scan; returns ``(scan_bytes, positions)``.

    ``positions[m]`` is the encoder state at the start of MCU ``m`` (only
    populated when ``record_positions`` is set); the final entry is the state
    after the last MCU, before padding.
    """
    encoder = ScanEncoder(
        img, coefficients, record_positions=record_positions
    )
    encoder.encode_to(img.frame.mcu_count)
    data = encoder.finish()
    return data, encoder.positions


def scan_symbols(img: JpegImage) -> Iterator[Tuple[int, bool, int, int, int]]:
    """The Huffman symbols of ``img``'s scan, in the order it codes them.

    Yields ``(component, ac, symbol, extra_bits, k)`` per symbol: the
    component index, whether the AC table codes it, the symbol (a DC
    category, or an AC ``(run << 4) | size``, ZRL ``0xF0`` or EOB
    ``0x00``), the count of magnitude bits after its code word, and the
    zigzag index its zero run starts at: 0 for DC, the run's first zero
    for a ZRL or an EOB, and for a value symbol the first of the ``run``
    zeros its symbol counts, so that its value sits at ``k + run``.  The
    DC predictors reset after each restart marker, as in
    :class:`ScanEncoder`, whose hot path writes the same symbols inline.
    """
    frame = img.frame
    layout = mcu_block_layout(frame)
    dc_pred = [0] * len(frame.components)
    interval = img.restart_interval
    rst_emitted = 0
    for mcu in range(frame.mcu_count):
        mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
        for ci, dy, dx in layout:
            comp = frame.components[ci]
            v, h = (comp.v, comp.h) if frame.interleaved else (1, 1)
            coefs = img.coefficients[ci][mcu_y * v + dy, mcu_x * h + dx].tolist()
            diff = coefs[0] - dc_pred[ci]
            dc_pred[ci] = coefs[0]
            size = abs(diff).bit_length()
            yield ci, False, size, size, 0
            start = 1  # the first zigzag index of the current zero run
            for k, r in enumerate(_AC_ORDER, 1):
                value = coefs[r]
                if not value:
                    continue
                run = k - start
                while run > 15:
                    yield ci, True, 0xF0, 0, start
                    run -= 16
                size = abs(value).bit_length()
                yield ci, True, (run << 4) | size, size, k - run
                start = k + 1
            if start < 64:
                yield ci, True, 0x00, 0, start
        if interval and (mcu + 1) % interval == 0 and rst_emitted < img.rst_count:
            rst_emitted += 1
            dc_pred = [0] * len(dc_pred)
