"""``scan_symbols`` walks the symbols the scan encoder writes.

The scan's bytes are its symbols' code words and magnitude bits, plus a
stuffed zero after each 0xFF data byte, a two-byte marker per restart and
under a byte of padding before each marker and at the end.  So once the
stuffing and the markers are taken off, the bits the walk accounts for
fall short of the scan by less than a byte per padded span.
"""

import pytest

from repro.corpus.builder import corpus_jpeg
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan
from repro.jpeg.scan_encode import encode_scan, scan_symbols
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

CASES = {
    "rst3_420": dict(seed=4, height=48, width=64, quality=85, restart_interval=3),
    "rst4_444": dict(seed=5, height=40, width=56, quality=90, restart_interval=4,
                     subsampling="4:4:4"),
    "rst2_gray_q97": dict(seed=601, height=48, width=64, quality=97,
                          grayscale=True, restart_interval=2),
}


def _decoded(**kwargs):
    img = parse_jpeg(corpus_jpeg(**kwargs))
    decode_scan(img)
    return img


def _padding_bits(img) -> int:
    """Scan bits the walk does not account for: the padding."""
    tables = ([img.dc_huffman(c) for c in img.frame.components],
              [img.ac_huffman(c) for c in img.frame.components])
    coded = sum(tables[ac][ci].encode_symbol(symbol)[1] + extra_bits
                for ci, ac, symbol, extra_bits, _ in scan_symbols(img))
    stuffed = img.scan_data.count(b"\xff\x00")
    return 8 * len(img.scan_data) - 8 * stuffed - 16 * img.rst_count - coded


@pytest.mark.parametrize("case", sorted(CASES))
def test_walk_accounts_for_the_scan_bytes(case):
    img = _decoded(**CASES[case])
    assert img.rst_count > 0
    assert 0 <= _padding_bits(img) < 8 * (img.rst_count + 1)


def test_long_zero_run_yields_two_zrls():
    """A value after 39 zeros: two ZRLs charged to the run's start, then a
    ``(7, size)`` symbol whose value sits at ``k + 7``, then an EOB."""
    img = _decoded(**CASES["rst3_420"])
    block = img.coefficients[0][0, 0]
    block[1:] = 0
    block[int(ZIGZAG_TO_RASTER[40])] = -3
    img.scan_data = encode_scan(img)[0]
    symbols = list(scan_symbols(img))
    assert symbols[1:5] == [(0, True, 0xF0, 0, 1), (0, True, 0xF0, 0, 1),
                            (0, True, 0x72, 2, 33), (0, True, 0x00, 0, 41)]
    assert 0 <= _padding_bits(img) < 8 * (img.rst_count + 1)
