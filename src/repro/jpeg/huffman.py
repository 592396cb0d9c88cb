"""Canonical JPEG Huffman tables: build, encode, decode, and optimisation.

A JPEG Huffman table is defined (DHT segment) by ``bits`` — the number of
codes of each length 1..16 — and ``values`` — the symbols in code order.
Codes are canonical: assigned in increasing length, counting upward.

Decoding is table driven: the next :data:`LOOKAHEAD` bits index a list
built on first decode, whose entry gives the symbol and code length of
every code that short; only a longer code, or bits the scan does not have,
fall back to reading one bit at a time.  Encoding indexes :attr:`codes`, a
list by symbol.
"""

from collections import defaultdict

from repro.jpeg.errors import JpegError


#: Bits one decode lookup covers; codes up to this length cost one lookup.
LOOKAHEAD = 9
_WINDOW_MASK = (1 << LOOKAHEAD) - 1


class HuffmanTable:
    """An encode/decode-capable canonical Huffman table."""

    def __init__(self, bits, values):
        bits = list(bits)
        values = list(values)
        if len(bits) != 16:
            raise JpegError(f"DHT bits list must have 16 entries, got {len(bits)}")
        if sum(bits) != len(values):
            raise JpegError("DHT values count does not match bits")
        if sum(bits) == 0:
            raise JpegError("empty Huffman table")
        self.bits = bits
        self.values = values
        #: ``(code, length)`` by symbol (None where the table has none).
        self.codes = [None] * 256
        self._decode = {}
        self._lookup = None
        code = 0
        k = 0
        for length in range(1, 17):
            for _ in range(bits[length - 1]):
                if code >= (1 << length):
                    raise JpegError("invalid Huffman table: code overflow")
                symbol = values[k]
                self.codes[symbol] = (code, length)
                self._decode[(length, code)] = symbol
                code += 1
                k += 1
            code <<= 1
        self.max_length = max(
            length for length in range(1, 17) if bits[length - 1]
        )

    def encode_symbol(self, symbol: int) -> tuple:
        """Return ``(code, length)`` for ``symbol``."""
        entry = self.codes[symbol] if 0 <= symbol < 256 else None
        if entry is None:
            raise JpegError(f"symbol 0x{symbol:02X} not in Huffman table")
        return entry

    def __contains__(self, symbol: int) -> bool:
        return 0 <= symbol < 256 and self.codes[symbol] is not None

    def decode_symbol(self, reader) -> int:
        """Decode one symbol from a :class:`~repro.jpeg.bitio.BitReader`."""
        lookup = self._lookup or self._build_lookup()
        # One lookup on the reader's buffered bits.  Fewer than LOOKAHEAD
        # of them remain only in front of a marker or the end of the data.
        nacc = reader._nacc
        if nacc < LOOKAHEAD:
            nacc = reader.fill()
        if nacc >= LOOKAHEAD:
            entry = lookup[(reader._acc >> (nacc - LOOKAHEAD)) & _WINDOW_MASK]
            if entry:
                reader._nacc = nacc - (entry & 0xF)
                return entry >> 4
        # A code longer than LOOKAHEAD bits, or one near the end of the
        # data: one bit at a time, so a missing bit raises where it is.
        code = 0
        decode = self._decode
        for length in range(1, self.max_length + 1):
            code = (code << 1) | reader.read_bit()
            symbol = decode.get((length, code))
            if symbol is not None:
                return symbol
        raise JpegError("invalid Huffman code in scan")

    def _build_lookup(self) -> list:
        """``(symbol << 4) | length`` for every :data:`LOOKAHEAD`-bit window
        that starts with a code of at most that length, else 0."""
        lookup = [0] * (1 << LOOKAHEAD)
        for (length, code), symbol in self._decode.items():
            if length <= LOOKAHEAD:
                shift = LOOKAHEAD - length
                entry = (symbol << 4) | length
                for window in range(code << shift, (code + 1) << shift):
                    lookup[window] = entry
        self._lookup = lookup
        return lookup

    def dht_payload(self, table_class: int, table_id: int) -> bytes:
        """Serialise as the body of a DHT segment entry."""
        out = bytearray([(table_class << 4) | table_id])
        out.extend(self.bits)
        out.extend(self.values)
        return bytes(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HuffmanTable)
            and self.bits == other.bits
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"HuffmanTable({sum(self.bits)} symbols, max_len={self.max_length})"


def build_optimal_table(frequencies) -> HuffmanTable:
    """Build a JPEG-legal optimal table from symbol frequencies.

    Implements libjpeg's ``jpeg_gen_optimal_table`` algorithm: Huffman code
    construction with length limiting to 16 bits and the all-ones code
    reserved (JPEG forbids a code of all 1-bits at max length).  Used by the
    JPEGrescan-style baseline, which re-optimises tables per file.
    """
    freq = defaultdict(int)
    for symbol, count in dict(frequencies).items():
        if count > 0:
            freq[symbol] = count
    if not freq:
        raise JpegError("cannot build a Huffman table with no symbols")
    # Reserved symbol 256 guarantees no real symbol gets the all-ones code.
    counts = dict(freq)
    counts[256] = 1
    codesize = defaultdict(int)
    others = {s: -1 for s in counts}
    active = dict(counts)

    while len(active) > 1:
        # Merge the two least-frequent subtrees (ties broken by symbol value,
        # matching libjpeg's "use the larger symbol" rule for determinism).
        c1 = min(active, key=lambda s: (active[s], -s))
        rest = {s: f for s, f in active.items() if s != c1}
        c2 = min(rest, key=lambda s: (rest[s], -s))
        active[c1] += active[c2]
        del active[c2]
        while True:
            codesize[c1] += 1
            if others[c1] == -1:
                break
            c1 = others[c1]
        others[c1] = c2
        while True:
            codesize[c2] += 1
            if others[c2] == -1:
                break
            c2 = others[c2]

    max_size = max(codesize.values())
    bits = [0] * (max(max_size, 17) + 1)
    for symbol, size in codesize.items():
        bits[size] += 1
    # Length-limit to 16 (libjpeg's overflow adjustment, generalised to any
    # starting depth — pathological frequency skews can exceed 32 levels).
    for length in range(len(bits) - 1, 16, -1):
        while bits[length] > 0:
            j = length - 2
            while bits[j] == 0:
                j -= 1
            bits[length] -= 2
            bits[length - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
    # Remove the reserved symbol's code (the longest one).
    for length in range(16, 0, -1):
        if bits[length]:
            bits[length] -= 1
            break
    # Symbols sorted by (code length, symbol value).
    real = [s for s in codesize if s != 256]
    real.sort(key=lambda s: (codesize[s], s))
    return HuffmanTable(bits[1:17], real)


# --- ITU-T T.81 Annex K.3 typical tables ---------------------------------

STD_DC_LUMA = HuffmanTable(
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
STD_DC_CHROMA = HuffmanTable(
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
STD_AC_LUMA = HuffmanTable(
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
        0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
        0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
        0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
        0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
        0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
        0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
        0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
        0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
        0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
        0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
        0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
        0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)
STD_AC_CHROMA = HuffmanTable(
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
        0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
        0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
        0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
        0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
        0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
        0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
        0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
        0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
        0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)
