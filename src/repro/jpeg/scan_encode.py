"""Re-encode coefficient arrays into a byte-exact baseline Huffman scan.

This is the half of Lepton that runs on every chunk download: arithmetic
decoding recovers the coefficients, and this module turns them back into the
user's original Huffman-coded bytes.  It supports resuming from an arbitrary
MCU with a Lepton "Huffman handover word" (partial byte, bit alignment, DC
predictors, restart-marker count — §3.4), which is what makes multithreaded
segment output and independent 4-MiB chunk decoding possible.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

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
        self.layout = mcu_block_layout(self.frame)
        self.dc_tables = [img.dc_huffman(c) for c in self.frame.components]
        self.ac_tables = [img.ac_huffman(c) for c in self.frame.components]
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
        frame = self.frame
        interval = self.img.restart_interval
        rst_limit = self.img.rst_count
        writer = self.writer
        while self.mcu < end_mcu:
            mcu = self.mcu
            mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
            for ci, dy, dx in self.layout:
                comp = frame.components[ci]
                by = mcu_y * (comp.v if frame.interleaved else 1) + dy
                bx = mcu_x * (comp.h if frame.interleaved else 1) + dx
                self._encode_block(ci, self.coefficients[ci][by, bx])
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
                self.dc_pred = [0] * len(frame.components)
            if self._record:
                self._record_position()

    def _encode_block(self, ci: int, block: np.ndarray) -> None:
        write_bits = self.writer.write_bits
        coefs = block.tolist()
        # DC: category of the diff against the running predictor, its code
        # and magnitude bits in one write.
        dc = coefs[0]
        diff = dc - self.dc_pred[ci]
        self.dc_pred[ci] = dc
        size = abs(diff).bit_length()
        code, length = self.dc_tables[ci].encode_symbol(size)
        bits = diff if diff >= 0 else diff + (1 << size) - 1
        write_bits((code << size) | bits, length + size)
        # AC: (run, size) symbols over the zigzag order.
        ac_table = self.ac_tables[ci]
        run = 0
        for r in _AC_ORDER:
            value = coefs[r]
            if not value:
                run += 1
                continue
            while run > 15:
                code, length = ac_table.encode_symbol(0xF0)  # ZRL
                write_bits(code, length)
                run -= 16
            size = abs(value).bit_length()
            code, length = ac_table.encode_symbol((run << 4) | size)
            bits = value if value >= 0 else value + (1 << size) - 1
            write_bits((code << size) | bits, length + size)
            run = 0
        if run:
            code, length = ac_table.encode_symbol(0x00)  # EOB
            write_bits(code, length)

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
