"""Marker-level JPEG parsing.

The parser extracts exactly what Lepton needs — quantisation tables, Huffman
tables, frame/scan geometry, the restart interval, and the location of the
entropy-coded scan — while keeping the raw header bytes verbatim.  Lepton
does not reinterpret headers: it zlib-compresses them as-is (§3.1) so the
original file can be reproduced bit-for-bit.

Every JPEG reader of the substrate shares one marker walk
(:func:`segments`) and one reader each for frame and scan headers
(:func:`frame_header`, :func:`scan_header`), and adds only its own policy:
:func:`parse_jpeg` stops at the first scan and admits the baseline alone;
:func:`repro.jpeg.progressive.parse_progressive` reads every scan to EOI.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.jpeg import markers as M
from repro.jpeg.components import Component, FrameInfo, ScanInfo
from repro.jpeg.errors import JpegError, TruncatedJpegError, UnsupportedJpegError
from repro.jpeg.huffman import HuffmanTable
from repro.jpeg.zigzag import from_zigzag


@dataclass
class JpegImage:
    """A parsed baseline JPEG, sufficient for byte-exact reconstruction."""

    header_bytes: bytes  # SOI through the end of the SOS header
    frame: FrameInfo
    scan: ScanInfo
    quant_tables: Dict[int, np.ndarray]
    huffman_tables: Dict[Tuple[int, int], HuffmanTable]  # (class, id) -> table
    restart_interval: int
    scan_start: int  # offset of entropy-coded data in the original file
    scan_data: bytes  # entropy-coded segment (stuffed bytes, RST markers)
    trailer_bytes: bytes  # EOI onward, incl. any appended "garbage" (§A.3)
    # Filled in by scan decoding:
    pad_bit: Optional[int] = None
    rst_count: int = 0
    coefficients: list = field(default_factory=list)  # per-component arrays

    @property
    def total_size(self) -> int:
        return len(self.header_bytes) + len(self.scan_data) + len(self.trailer_bytes)

    def original_bytes(self) -> bytes:
        """Reassemble the original file from the parsed parts."""
        return self.header_bytes + self.scan_data + self.trailer_bytes

    def dc_huffman(self, comp: Component) -> HuffmanTable:
        return self._table(0, comp.dc_table_id)

    def ac_huffman(self, comp: Component) -> HuffmanTable:
        return self._table(1, comp.ac_table_id)

    def _table(self, table_class: int, table_id: int) -> HuffmanTable:
        try:
            return self.huffman_tables[(table_class, table_id)]
        except KeyError:
            kind = "DC" if table_class == 0 else "AC"
            raise JpegError(f"missing {kind} Huffman table {table_id}") from None


def _parse_dqt(payload: bytes, tables: Dict[int, np.ndarray]) -> None:
    pos = 0
    while pos < len(payload):
        pq_tq = payload[pos]
        pos += 1
        precision = pq_tq >> 4
        table_id = pq_tq & 0x0F
        if precision == 0:
            if pos + 64 > len(payload):
                raise TruncatedJpegError("truncated DQT")
            zz = np.frombuffer(payload[pos : pos + 64], dtype=np.uint8).astype(np.int32)
            pos += 64
        elif precision == 1:
            if pos + 128 > len(payload):
                raise TruncatedJpegError("truncated 16-bit DQT")
            zz = (
                np.frombuffer(payload[pos : pos + 128], dtype=">u2").astype(np.int32)
            )
            pos += 128
        else:
            raise JpegError(f"invalid DQT precision {precision}")
        if np.any(zz == 0):
            raise JpegError("quantisation table contains zero")
        tables[table_id] = from_zigzag(zz)


def _parse_dht(payload: bytes, tables: Dict[Tuple[int, int], HuffmanTable]) -> None:
    pos = 0
    while pos < len(payload):
        if pos + 17 > len(payload):
            raise TruncatedJpegError("truncated DHT")
        tc_th = payload[pos]
        table_class = tc_th >> 4
        table_id = tc_th & 0x0F
        if table_class > 1:
            raise JpegError(f"invalid DHT class {table_class}")
        bits = list(payload[pos + 1 : pos + 17])
        count = sum(bits)
        pos += 17
        if pos + count > len(payload):
            # The fuzzing bug of §6.7: uncmpjpg did not validate that the
            # Huffman table had space for its data.  We do.
            raise TruncatedJpegError("DHT values overflow segment")
        values = list(payload[pos : pos + count])
        pos += count
        tables[(table_class, table_id)] = HuffmanTable(bits, values)


def frame_header(payload: bytes, max_components: int = 3) -> FrameInfo:
    """Read an SOF payload: precision, dimensions and components.

    Applies the limits every parser shares: 8-bit samples, 1 or 3
    components (4 with ``max_components=4``) and sampling factors of 1
    or 2.  The SOF kind is the caller's policy.
    """
    if len(payload) < 6:
        raise TruncatedJpegError("truncated SOF")
    precision = payload[0]
    height = (payload[1] << 8) | payload[2]
    width = (payload[3] << 8) | payload[4]
    ncomp = payload[5]
    if precision != 8:
        raise UnsupportedJpegError(f"{precision}-bit precision", reason="precision")
    if ncomp == 4 and max_components < 4:
        # §6.2: production "could process these ... an extra model for the
        # 4th color channel" but intentionally rejects them.
        raise UnsupportedJpegError("4-colour (CMYK) JPEG", reason="cmyk")
    if ncomp not in (1, 3, 4) or ncomp > max_components:
        raise UnsupportedJpegError(f"{ncomp}-component JPEG", reason="components")
    if len(payload) < 6 + 3 * ncomp:
        raise TruncatedJpegError("truncated SOF components")
    frame = FrameInfo(precision=precision, height=height, width=width)
    for i in range(ncomp):
        cid, hv, tq = payload[6 + 3 * i : 9 + 3 * i]
        h, v = hv >> 4, hv & 0x0F
        if not (1 <= h <= 2 and 1 <= v <= 2):
            # Production Lepton bounds the in-memory framebuffer slice; large
            # sampling factors are rejected ("Chroma subsample big", §6.2).
            raise UnsupportedJpegError(
                f"sampling factors {h}x{v}", reason="chroma_subsample"
            )
        frame.components.append(Component(cid, h, v, tq))
    frame.finalise()
    return frame


def scan_header(payload: bytes, frame: FrameInfo) -> tuple:
    """Read an SOS payload: ``(components, ss, se, ah, al)``.

    ``components`` holds ``(index, dc_table, ac_table)`` per scan
    component, ``index`` into ``frame.components``; the rest is the
    spectral band and the successive-approximation bits.
    """
    if len(payload) < 1:
        raise TruncatedJpegError("truncated SOS")
    ncomp = payload[0]
    if len(payload) < 1 + 2 * ncomp + 3:
        raise TruncatedJpegError("truncated SOS body")
    by_id = {c.component_id: i for i, c in enumerate(frame.components)}
    components = []
    for i in range(ncomp):
        cid, tables = payload[1 + 2 * i], payload[2 + 2 * i]
        if cid not in by_id:
            raise JpegError(f"SOS references unknown component {cid}")
        components.append((by_id[cid], tables >> 4, tables & 0x0F))
    ss, se, ah_al = payload[1 + 2 * ncomp : 4 + 2 * ncomp]
    return components, ss, se, ah_al >> 4, ah_al & 0x0F


def find_scan_end(data: bytes, start: int) -> int:
    """Offset of the first non-RST marker after ``start`` (end of the scan)."""
    pos = start
    end = len(data)
    while pos < end:
        byte = data.find(0xFF, pos)
        if byte == -1 or byte + 1 >= end:
            return end  # truncated scan: no terminating marker
        nxt = data[byte + 1]
        if nxt == 0x00 or M.is_rst(nxt) or nxt == 0xFF:
            pos = byte + 1 if nxt == 0xFF else byte + 2
            continue
        return byte
    return end


def segments(data: bytes) -> Iterator[Tuple[int, bytes, int]]:
    """Walk the marker segments of ``data``: ``(marker, payload, end)`` each.

    The one marker walk of the substrate.  It checks SOI, skips fill bytes
    and every standalone marker but EOI, which it yields (with an empty
    payload) last.  ``end`` is the offset just past the segment: after an
    SOS, where its entropy-coded scan starts; the walk resumes at the
    scan's end (:func:`find_scan_end`).  It stops without a word if the
    data runs out before EOI; what that means is the caller's policy.
    """
    if len(data) < 4 or data[0] != 0xFF or data[1] != M.SOI:
        raise JpegError("not a JPEG: missing SOI marker")
    pos = 2
    while pos + 2 <= len(data):
        if data[pos] != 0xFF:
            raise JpegError(f"expected marker at offset {pos}")
        marker = data[pos + 1]
        if marker == 0xFF:  # fill byte
            pos += 1
        elif marker == M.EOI:
            yield marker, b"", pos + 2
            return
        elif M.is_standalone(marker):
            pos += 2
        else:
            if pos + 4 > len(data):
                raise TruncatedJpegError("truncated marker length")
            length = (data[pos + 2] << 8) | data[pos + 3]
            end = pos + 2 + length
            if length < 2 or end > len(data):
                raise TruncatedJpegError(f"truncated {M.marker_name(marker)} segment")
            yield marker, data[pos + 4 : end], end
            pos = find_scan_end(data, end) if marker == M.SOS else end


def _baseline_frame(marker: int, payload: bytes, max_components: int) -> FrameInfo:
    if marker in M.PROGRESSIVE_SOFS:
        raise UnsupportedJpegError("progressive JPEG", reason="progressive")
    if marker in M.ARITHMETIC_SOFS:
        raise UnsupportedJpegError("arithmetic-coded JPEG", reason="arithmetic")
    if marker not in M.BASELINE_SOFS:
        raise UnsupportedJpegError(
            f"unsupported coding process SOF{marker - M.SOF0}", reason="unsupported_sof"
        )
    return frame_header(payload, max_components)


def _baseline_scan(payload: bytes, frame: FrameInfo) -> ScanInfo:
    """The one scan a baseline file may have: every component, the full
    band; it binds each component's Huffman tables on the frame."""
    if payload and payload[0] != len(frame.components):
        raise UnsupportedJpegError(
            "multi-scan baseline JPEG (scan does not cover all components)",
            reason="multi_scan",
        )
    components, *band = scan_header(payload, frame)
    for ci, dc_table, ac_table in components:
        frame.components[ci].dc_table_id = dc_table
        frame.components[ci].ac_table_id = ac_table
    scan = ScanInfo([ci for ci, _, _ in components], *band)
    if not scan.is_baseline_full_scan():
        raise UnsupportedJpegError("partial spectral scan", reason="multi_scan")
    return scan


def parse_jpeg(data: bytes, max_components: int = 3) -> JpegImage:
    """Parse a baseline JPEG file.

    Raises :class:`UnsupportedJpegError` for well-formed-but-unsupported
    files (progressive, CMYK, ...) and :class:`JpegError` for structurally
    broken input — mirroring the exit-code taxonomy of §6.2.
    ``max_components=4`` enables the paper's intentionally-disabled CMYK
    path (the extra model for the fourth channel).
    """
    quant_tables: Dict[int, np.ndarray] = {}
    huffman_tables: Dict[Tuple[int, int], HuffmanTable] = {}
    restart_interval = 0
    frame: Optional[FrameInfo] = None
    for marker, payload, scan_start in segments(data):
        if marker == M.EOI:
            raise JpegError("EOI before any scan (header-only JPEG)")
        if marker == M.DQT:
            _parse_dqt(payload, quant_tables)
        elif marker == M.DHT:
            _parse_dht(payload, huffman_tables)
        elif marker == M.DAC:
            raise UnsupportedJpegError("arithmetic conditioning", reason="arithmetic")
        elif marker in M.SOF_MARKERS:
            if frame is not None:
                raise JpegError("multiple SOF markers")
            frame = _baseline_frame(marker, payload, max_components)
        elif marker == M.DRI:
            if len(payload) != 2:
                raise JpegError("bad DRI length")
            restart_interval = (payload[0] << 8) | payload[1]
        elif marker == M.SOS:
            if frame is None:
                raise JpegError("SOS before SOF")
            scan = _baseline_scan(payload, frame)
            break
        # APPn / COM / DNL and friends: skipped, preserved verbatim in header.
    else:
        raise TruncatedJpegError("file ended before SOS")

    for comp in frame.components:
        if comp.quant_table_id not in quant_tables:
            raise JpegError(f"missing quantisation table {comp.quant_table_id}")

    scan_end = find_scan_end(data, scan_start)
    return JpegImage(
        header_bytes=data[:scan_start],
        frame=frame,
        scan=scan,
        quant_tables=quant_tables,
        huffman_tables=huffman_tables,
        restart_interval=restart_interval,
        scan_start=scan_start,
        scan_data=data[scan_start:scan_end],
        trailer_bytes=data[scan_end:],
    )
