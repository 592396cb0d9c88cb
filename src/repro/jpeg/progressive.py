"""Progressive JPEG (SOF2) with spectral selection: parse, decode, encode.

Progressive files are the paper's largest reject class (§6.2: 3.043%) —
production Lepton detects and skips them "for simplicity", although the
binary could handle them.  This module gives the substrate real
progressive capability for three reasons:

* the corpus can contain *genuine* progressive files (not just marker-
  patched baselines) for the rejection-path tests and the §6.2 table;
* JPEGrescan/MozJPEG's actual technique (§2) is rewriting baseline files
  "in 'progressive' order, which can group similar values together and
  result in more efficient coding" — the jpegrescan baseline uses this
  module to do exactly that;
* round-tripping our own progressive output exercises multi-scan parsing.

The module holds progressive policy only: it reads files through the
substrate's one marker walk and header readers (:mod:`repro.jpeg.parser`)
and builds them with its one set of segment writers
(:mod:`repro.jpeg.writer`).

Scope: spectral-selection progressive (Ah = Al = 0 in every scan), the
common "DC first, then AC bands per component" script.  Successive
approximation is intentionally out of scope, as in many early encoders.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.jpeg import markers as M
from repro.jpeg.bitio import BitReader, BitWriter
from repro.jpeg.components import FrameInfo
from repro.jpeg.errors import JpegError, UnsupportedJpegError
from repro.jpeg.huffman import HuffmanTable, build_optimal_table
from repro.jpeg.parser import (
    _parse_dht,
    _parse_dqt,
    frame_header,
    parse_jpeg,
    scan_header,
    segments,
)
from repro.jpeg.scan_decode import MAX_DC_CATEGORY, decode_scan, extend, mcu_block_layout
from repro.jpeg.writer import (
    _dqt_segment,
    _jfif_app0,
    _segment,
    _sof_segment,
    _sos_segment,
    encode_baseline_jpeg,
)
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

#: The default scan script: interleaved DC scan, then two AC bands per
#: component (low frequencies first — the "blurry then sharp" rendering).
DEFAULT_AC_BANDS = ((1, 5), (6, 63))


@dataclass
class ProgressiveScan:
    """One SOS of a progressive file."""

    component_indices: List[int]
    spectral_start: int
    spectral_end: int
    data_start: int
    # Tables are *redefined between scans* (each scan ships its own DHT),
    # so the scan keeps the table it codes each component with: a DC
    # table in a DC scan, an AC table in a band.
    tables: Dict[int, HuffmanTable]

    @property
    def is_dc(self) -> bool:
        return self.spectral_start == 0


@dataclass
class ProgressiveImage:
    """A parsed progressive JPEG."""

    frame: FrameInfo
    quant_tables: Dict[int, np.ndarray]
    huffman_tables: Dict[Tuple[int, int], HuffmanTable]
    scans: List[ProgressiveScan]
    coefficients: List[np.ndarray] = field(default_factory=list)


# --------------------------------------------------------------------------
# Parsing / decoding
# --------------------------------------------------------------------------

def parse_progressive(data: bytes,
                      frame: Optional[FrameInfo] = None) -> ProgressiveImage:
    """Parse a spectral-selection progressive JPEG (headers + scan spans).

    ``frame`` supplies the geometry for *bare* payloads (scans without
    APP0/DQT/SOF2 — used when the frame header is stored elsewhere, as in
    the jpegrescan container).
    """
    quant: Dict[int, np.ndarray] = {}
    huff: Dict[Tuple[int, int], HuffmanTable] = {}
    scans: List[ProgressiveScan] = []
    for marker, payload, end in segments(data):
        if marker == M.DQT:
            _parse_dqt(payload, quant)
        elif marker == M.DHT:
            _parse_dht(payload, huff)
        elif marker == M.SOF2:
            frame = frame_header(payload)
        elif marker in M.SOF_MARKERS:
            raise UnsupportedJpegError("not a progressive frame", reason="unsupported_sof")
        elif marker == M.SOS:
            if frame is None:
                raise JpegError("SOS before SOF2")
            scans.append(_progressive_scan(payload, frame, huff, end))
    if frame is None or not scans:
        raise JpegError("no progressive frame/scans found")
    image = ProgressiveImage(frame, quant, huff, scans)
    _decode_scans(data, image)
    return image


def _progressive_scan(payload: bytes, frame: FrameInfo,
                      huff: Dict[Tuple[int, int], HuffmanTable],
                      start: int) -> ProgressiveScan:
    components, ss, se, ah, al = scan_header(payload, frame)
    if not 0 <= ss <= se <= 63:
        raise JpegError(f"invalid spectral band [{ss}, {se}]")
    if ss == 0 and se != 0:
        raise JpegError("progressive scans must not mix DC and AC")
    if ah or al:
        raise UnsupportedJpegError(
            "successive approximation not supported", reason="progressive_sa"
        )
    keys = {ci: (1, ac_table) if ss else (0, dc_table)
            for ci, dc_table, ac_table in components}
    tables = {ci: huff[key] for ci, key in keys.items() if key in huff}
    return ProgressiveScan([ci for ci, _, _ in components], ss, se, start, tables)


def _decode_scans(data: bytes, image: ProgressiveImage) -> None:
    frame = image.frame
    image.coefficients = [
        np.zeros((c.blocks_h, c.blocks_w, 64), dtype=np.int32)
        for c in frame.components
    ]
    for scan in image.scans:
        if scan.is_dc:
            _decode_dc_scan(data, image, scan)
        else:
            _decode_ac_scan(data, image, scan)


def _decode_dc_scan(data: bytes, image: ProgressiveImage, scan: ProgressiveScan) -> None:
    frame = image.frame
    reader = BitReader(data, start=scan.data_start)
    interleaved = len(scan.component_indices) > 1
    dc_pred = {ci: 0 for ci in scan.component_indices}
    tables = scan.tables
    for ci in scan.component_indices:
        if ci not in tables:
            raise JpegError(f"DC scan missing Huffman table for component {ci}")
    if interleaved:
        layout = mcu_block_layout(frame)
        for mcu in range(frame.mcu_count):
            mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
            for ci, dy, dx in layout:
                comp = frame.components[ci]
                by, bx = mcu_y * comp.v + dy, mcu_x * comp.h + dx
                size = tables[ci].decode_symbol(reader)
                if size > MAX_DC_CATEGORY:
                    raise JpegError(f"DC category {size} out of range")
                dc_pred[ci] += extend(reader.read_bits(size), size)
                image.coefficients[ci][by, bx, 0] = dc_pred[ci]
    else:
        ci = scan.component_indices[0]
        comp = frame.components[ci]
        for by in range(comp.blocks_h):
            for bx in range(comp.blocks_w):
                size = tables[ci].decode_symbol(reader)
                dc_pred[ci] += extend(reader.read_bits(size), size)
                image.coefficients[ci][by, bx, 0] = dc_pred[ci]


def _decode_ac_scan(data: bytes, image: ProgressiveImage, scan: ProgressiveScan) -> None:
    if len(scan.component_indices) != 1:
        raise JpegError("progressive AC scans must be single-component")
    ci = scan.component_indices[0]
    comp = image.frame.components[ci]
    if ci not in scan.tables:
        raise JpegError(f"AC scan missing Huffman table for component {ci}")
    table = scan.tables[ci]
    reader = BitReader(data, start=scan.data_start)
    coeffs = image.coefficients[ci]
    eob_run = 0
    for by in range(comp.blocks_h):
        for bx in range(comp.blocks_w):
            if eob_run > 0:
                eob_run -= 1
                continue
            k = scan.spectral_start
            while k <= scan.spectral_end:
                rs = table.decode_symbol(reader)
                run, size = rs >> 4, rs & 0x0F
                if size == 0:
                    if run == 15:  # ZRL
                        k += 16
                        continue
                    # EOBn: end-of-band run of 2^run + extra bits blocks.
                    eob_run = (1 << run) - 1
                    if run:
                        eob_run += reader.read_bits(run)
                    break
                k += run
                if k > scan.spectral_end:
                    raise JpegError("AC run overruns spectral band")
                coeffs[by, bx, ZIGZAG_TO_RASTER[k]] = extend(
                    reader.read_bits(size), size
                )
                k += 1


# --------------------------------------------------------------------------
# Encoding
# --------------------------------------------------------------------------

def _magnitude(value: int) -> Tuple[int, int]:
    """A value's size category and the bits that code it (T.81 F.1.2.1)."""
    size = abs(value).bit_length()
    return size, value if value >= 0 else value + (1 << size) - 1


def _dc_symbols(frame: FrameInfo, coefficients) -> List[Tuple[int, int, int]]:
    """(symbol, extra_bits_value, extra_bits_count) stream of the
    interleaved DC scan."""
    symbols: List[Tuple[int, int, int]] = []
    layout = mcu_block_layout(frame)
    dc_pred = [0] * len(frame.components)
    for mcu in range(frame.mcu_count):
        mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
        for ci, dy, dx in layout:
            comp = frame.components[ci]
            v, h = (comp.v, comp.h) if frame.interleaved else (1, 1)
            dc = int(coefficients[ci][mcu_y * v + dy, mcu_x * h + dx, 0])
            size, bits = _magnitude(dc - dc_pred[ci])
            dc_pred[ci] = dc
            symbols.append((size, bits, size))
    return symbols


def _ac_band_symbols(comp, coeffs, band) -> List[Tuple[int, int, int]]:
    """(symbol, extra_bits_value, extra_bits_count) stream for one band."""
    lo, hi = band
    symbols: List[Tuple[int, int, int]] = []
    eob_run = 0

    def flush_eob():
        nonlocal eob_run
        while eob_run > 0:
            run_category = min(eob_run.bit_length() - 1, 14)
            count = 1 << run_category
            extra = eob_run - count if count <= eob_run else 0
            extra = min(extra, count - 1)
            symbols.append((run_category << 4, extra, run_category))
            eob_run -= count + extra

    for by in range(comp.blocks_h):
        for bx in range(comp.blocks_w):
            block = coeffs[by, bx]
            values = [int(block[ZIGZAG_TO_RASTER[k]]) for k in range(lo, hi + 1)]
            if not any(values):
                eob_run += 1
                continue
            flush_eob()
            run = 0
            last_nz = max(i for i, v in enumerate(values) if v)
            for i, value in enumerate(values[: last_nz + 1]):
                if value == 0:
                    run += 1
                    continue
                while run > 15:
                    symbols.append((0xF0, 0, 0))
                    run -= 16
                size, bits = _magnitude(value)
                symbols.append(((run << 4) | size, bits, size))
                run = 0
            if last_nz < len(values) - 1:
                eob_run += 1  # EOB terminates this block's band
    flush_eob()
    return symbols


def _scan_bytes(table: HuffmanTable, symbols) -> bytes:
    """The entropy-coded bytes of one scan's symbols, padded with 1-bits."""
    writer = BitWriter()
    for symbol, extra, nbits in symbols:
        code, length = table.encode_symbol(symbol)
        writer.write_bits((code << nbits) | extra, length + nbits)
    writer.pad_to_byte(1)
    return writer.getvalue()


def encode_progressive(
    frame: FrameInfo,
    quant_tables: Dict[int, np.ndarray],
    coefficients: List[np.ndarray],
    ac_bands: Tuple[Tuple[int, int], ...] = DEFAULT_AC_BANDS,
    bare: bool = False,
) -> bytes:
    """Encode coefficients as a progressive JPEG with optimal tables.

    The scan script is: one interleaved DC scan, then ``ac_bands`` spectral
    bands per component, sharing optimal Huffman tables — the JPEGrescan
    recipe.  ``bare`` omits APP0/DQT/SOF2 (for containers that keep the
    original header elsewhere; decode with ``parse_progressive(frame=...)``).
    """
    out = bytearray(b"\xFF\xD8")
    if not bare:
        out += _jfif_app0()
        for table_id in sorted(quant_tables):
            out += _dqt_segment(table_id, quant_tables[table_id])
        out += _sof_segment(M.SOF2, frame)

    # --- DC scan (interleaved, table id 0) --------------------------------
    dc_symbols = _dc_symbols(frame, coefficients)
    dc_table = build_optimal_table(Counter(sym for sym, _, _ in dc_symbols))
    out += _segment(M.DHT, dc_table.dht_payload(0, 0))
    out += _sos_segment(frame, [(ci, 0, 0) for ci in range(len(frame.components))],
                        (0, 0))
    out += _scan_bytes(dc_table, dc_symbols)

    # --- AC band scans, one per (component, band), sharing one optimal AC
    # table across all of them (jpegtran-style table economy: per-scan DHTs
    # would eat the gains on small files).
    bands = [(ci, band, _ac_band_symbols(comp, coefficients[ci], band))
             for ci, comp in enumerate(frame.components) for band in ac_bands]
    ac_table = build_optimal_table(
        Counter(sym for _, _, symbols in bands for sym, _, _ in symbols) or {0x00: 1}
    )
    out += _segment(M.DHT, ac_table.dht_payload(1, 1))
    for ci, band, symbols in bands:
        out += _sos_segment(frame, [(ci, 0, 1)], band)
        out += _scan_bytes(ac_table, symbols)

    out += b"\xFF\xD9"
    return bytes(out)


def encode_progressive_jpeg(pixels: np.ndarray, quality: int = 85,
                            subsampling: str = "4:2:0") -> bytes:
    """Encode raw pixels straight to a progressive JPEG (corpus helper)."""
    baseline = encode_baseline_jpeg(pixels, quality=quality,
                                    subsampling=subsampling)
    img = parse_jpeg(baseline)
    decode_scan(img)
    return encode_progressive(img.frame, img.quant_tables, img.coefficients)
