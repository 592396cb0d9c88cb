"""JPEGrescan-style recompression: per-file optimal Huffman tables (§2).

jpegtran/JPEGrescan rewrite the entropy scan with Huffman tables optimised
for *this* file's symbol statistics instead of the Annex-K defaults, and
JPEGrescan also tries a progressive scan order.  Both flavours are here:
``optimize`` rebuilds the tables, ``progressive`` rewrites the scan in
spectral-selection order with optimal tables, and the default ``best``
codes both and keeps the smaller (see DESIGN.md).  The original tools are
pixel-exact but not file-preserving; to fit the paper's storage setting
this implementation additionally keeps the original header so
decompression restores the exact original bytes, by re-encoding the scan
with the *original* tables.
"""

import struct
from collections import Counter, defaultdict
from dataclasses import replace

from repro.baselines.container import front_end, pack, restore, unpack
from repro.core.errors import FormatError
from repro.jpeg.huffman import build_optimal_table
from repro.jpeg.parser import _parse_dht
from repro.jpeg.progressive import encode_progressive, parse_progressive
from repro.jpeg.scan_decode import decode_scan
from repro.jpeg.scan_encode import encode_scan, scan_symbols

MAGIC = b"JR"


def _gather_symbol_stats(img):
    """Frequency of every DC/AC Huffman symbol the scan would emit, per
    table id: ``(dc_freq, ac_freq)``."""
    freq = (defaultdict(Counter), defaultdict(Counter))
    components = img.frame.components
    for ci, ac, symbol, _, _ in scan_symbols(img):
        comp = components[ci]
        freq[ac][comp.ac_table_id if ac else comp.dc_table_id][symbol] += 1
    return freq


MODE_OPTIMIZE = "optimize"
MODE_PROGRESSIVE = "progressive"
MODE_BEST = "best"


def _optimize(img) -> bytes:
    """Flavour ``O``: the scan re-coded with optimal tables, which the
    meta's tail stores as a count and length-prefixed DHT bodies (the
    original tables stay in the verbatim header)."""
    tables = {(tclass, tid): build_optimal_table(freq[tid])
              for tclass, freq in enumerate(_gather_symbol_stats(img))
              for tid in sorted(freq)}
    scan, _ = encode_scan(replace(img, huffman_tables={**img.huffman_tables, **tables}))
    block = bytearray([len(tables)])
    for key, table in tables.items():
        body = table.dht_payload(*key)
        block += struct.pack("<H", len(body)) + body
    return pack(MAGIC + b"O", img, scan, tail=bytes(block))


def _progressive(img) -> bytes:
    """Flavour ``P``: the coefficients as a bare progressive JPEG."""
    coded = encode_progressive(img.frame, img.quant_tables, img.coefficients,
                               bare=True)
    return pack(MAGIC + b"P", img, coded)


_FLAVOURS = {
    MODE_OPTIMIZE: (_optimize,),
    MODE_PROGRESSIVE: (_progressive,),
    MODE_BEST: (_optimize, _progressive),
}


def compress(data: bytes, mode: str = MODE_BEST) -> bytes:
    """Losslessly shrink a baseline JPEG, jpegtran/JPEGrescan-style.

    ``mode="optimize"`` rebuilds the Huffman tables for this file's symbol
    statistics (jpegtran -optimize); ``mode="progressive"`` rewrites the
    scan in progressive spectral-selection order with optimal tables — the
    technique the paper credits for JPEGrescan's savings ("rewriting the
    file in 'progressive' order, which can group similar values together",
    §2); ``mode="best"`` tries both and keeps the smaller, which is exactly
    what the real JPEGrescan script does with its candidate scan scripts.
    """
    if mode not in _FLAVOURS:
        raise ValueError(f"unknown mode {mode!r}")
    img = front_end(data, "jpegrescan-like")
    return min((flavour(img) for flavour in _FLAVOURS[mode]), key=len)


def decompress(payload: bytes) -> bytes:
    """Recover the exact original bytes from either payload flavour."""
    flavour = payload[2:3]
    if payload[:2] == MAGIC and flavour not in (b"O", b"P"):
        raise FormatError(f"unknown jpegrescan payload flavour {flavour!r}")
    img, coded, _, tail = unpack(payload, MAGIC + flavour, "jpegrescan-like")
    if flavour == b"P":
        img.coefficients = parse_progressive(coded, frame=img.frame).coefficients
        return restore(img)
    # Decode the optimised scan with the stored tables, then re-encode it
    # with the original ones for byte-exact recovery.
    tables = dict(img.huffman_tables)
    pos = 1
    for _ in range(tail[0]):
        (size,) = struct.unpack_from("<H", tail, pos)
        _parse_dht(tail[pos + 2:pos + 2 + size], tables)
        pos += 2 + size
    img.coefficients = decode_scan(replace(img, huffman_tables=tables,
                                           scan_data=coded))
    return restore(img)
