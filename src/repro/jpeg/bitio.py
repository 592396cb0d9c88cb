"""Bit-level I/O for the JPEG entropy-coded scan.

Both classes understand JPEG byte stuffing (an ``0xFF`` data byte is
followed by a ``0x00`` stuffing byte in the stream) and support resuming
mid-byte from a Lepton "Huffman handover word" (§3.4): the writer can be
seeded with a partial byte, and reports its partial-byte state so the next
thread segment or chunk can continue the very same output byte.
"""

from repro.jpeg.errors import JpegError, TruncatedJpegError

#: Bits a reader buffers when it runs low: more than the longest code or
#: magnitude (16 bits), so most reads find their bits already buffered.
FILL_BITS = 25


class BitWriter:
    """MSB-first bit writer with JPEG byte stuffing.

    Parameters
    ----------
    partial_byte:
        High bits of an in-progress byte (already aligned to the MSB) carried
        over from a previous segment via a handover word.
    partial_bits:
        How many bits of ``partial_byte`` are valid (0..7).
    stuff:
        Insert a ``0x00`` after every emitted ``0xFF`` (entropy scan rule).
    """

    def __init__(self, partial_byte: int = 0, partial_bits: int = 0, stuff: bool = True):
        if not 0 <= partial_bits <= 7:
            raise ValueError(f"partial_bits must be in [0, 7], got {partial_bits}")
        self._out = bytearray()
        self._acc = partial_byte >> (8 - partial_bits) if partial_bits else 0
        self._nacc = partial_bits
        self._stuff = stuff
        self._drained = 0

    def write_bits(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value``, most significant first.

        ``nbits`` may be any width: every completed byte is emitted in one
        conversion, and stuffed in one pass.
        """
        if nbits == 0:
            return
        acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        nacc = self._nacc + nbits
        if nacc >= 8:
            rest = nacc & 7
            full = (acc >> rest).to_bytes(nacc >> 3, "big")
            if self._stuff and b"\xff" in full:
                full = full.replace(b"\xff", b"\xff\x00")
            self._out += full
            acc &= (1 << rest) - 1
            nacc = rest
        self._acc, self._nacc = acc, nacc

    def write_bit(self, bit: int) -> None:
        """Append a single bit."""
        self.write_bits(bit & 1, 1)

    def pad_to_byte(self, pad_bit: int) -> None:
        """Fill the current byte with copies of ``pad_bit`` (0 or 1)."""
        if self._nacc:
            fill = 8 - self._nacc
            self.write_bits(0 if not pad_bit else (1 << fill) - 1, fill)

    def emit_marker(self, marker: int) -> None:
        """Emit a raw two-byte marker (must be byte aligned; no stuffing)."""
        if self._nacc:
            raise JpegError("marker emitted while not byte aligned")
        self._out.append(0xFF)
        self._out.append(marker & 0xFF)

    @property
    def partial_state(self) -> tuple:
        """``(partial_byte, partial_bits)`` for a Huffman handover word."""
        if self._nacc == 0:
            return (0, 0)
        return ((self._acc << (8 - self._nacc)) & 0xFF, self._nacc)

    @property
    def bytes_emitted(self) -> int:
        """Number of complete bytes written so far (stuffing included)."""
        return self._drained + len(self._out)

    @property
    def bit_position(self) -> int:
        """Total bits written modulo byte alignment: bytes * 8 + partial bits."""
        return self.bytes_emitted * 8 + self._nacc

    def getvalue(self) -> bytes:
        """Complete bytes emitted and not yet drained (no in-progress byte)."""
        return bytes(self._out)

    def drain(self) -> bytes:
        """Take the buffered complete bytes and release them.

        The row-bounded streaming decoder (§1's memory requirement) drains
        the writer after every MCU row so the output buffer never grows
        with the image; ``bytes_emitted`` keeps counting cumulatively.
        """
        chunk = bytes(self._out)
        self._out.clear()
        self._drained += len(chunk)
        return chunk


class BitReader:
    """MSB-first bit reader over an entropy-coded JPEG scan.

    Stuffed ``0xFF 0x00`` pairs are consumed as a single ``0xFF`` data byte.
    Encountering any other marker mid-read raises, since a correct decode
    consumes exactly the coded bits; restart markers are consumed explicitly
    via :meth:`expect_rst`.

    Multi-bit reads buffer whole data bytes ahead of the read position
    (:meth:`fill`).  Buffering never raises: it stops in front of the end
    of the data or a marker, and a read that needs a bit beyond that point
    raises exactly what a bit-at-a-time read would have raised there.
    """

    def __init__(self, data: bytes, start: int = 0):
        self._data = data
        self._pos = start
        #: Buffered bits: the low ``_nacc`` bits of ``_acc`` are unread.
        self._acc = 0
        self._nacc = 0

    def _next_byte(self) -> int:
        data, pos = self._data, self._pos
        if pos >= len(data):
            raise TruncatedJpegError("entropy scan truncated")
        byte = data[pos]
        pos += 1
        if byte == 0xFF:
            if pos >= len(data):
                raise TruncatedJpegError("entropy scan truncated after 0xFF")
            nxt = data[pos]
            if nxt == 0x00:
                pos += 1
            else:
                raise JpegError(f"unexpected marker 0xFF{nxt:02X} inside scan")
        self._pos = pos
        return byte

    def fill(self, nbits: int = FILL_BITS) -> int:
        """Buffer whole data bytes until ``nbits`` bits are unread or the
        next byte is not data; returns the number of unread bits.

        The unread bits are the low ``_nacc`` bits of ``_acc``, which a
        table-driven Huffman decode reads and consumes in place.
        """
        data, pos, nacc = self._data, self._pos, self._nacc
        acc = self._acc & ((1 << nacc) - 1)
        end = len(data)
        while nacc < nbits and pos < end:
            byte = data[pos]
            if byte == 0xFF:
                if pos + 1 >= end or data[pos + 1]:
                    break
                pos += 2
            else:
                pos += 1
            acc = (acc << 8) | byte
            nacc += 8
        self._pos, self._acc, self._nacc = pos, acc, nacc
        return nacc

    def read_bit(self) -> int:
        """Read one bit."""
        if self._nacc == 0:
            self._acc = self._next_byte()
            self._nacc = 8
        self._nacc -= 1
        return (self._acc >> self._nacc) & 1

    def read_bits(self, nbits: int) -> int:
        """Read ``nbits`` bits as an unsigned integer (MSB first)."""
        nacc = self._nacc
        if nacc < nbits:
            nacc = self.fill(max(nbits, FILL_BITS))
            if nacc < nbits:
                self._next_byte()  # raises: the next byte is not data
        nacc -= nbits
        self._nacc = nacc
        return (self._acc >> nacc) & ((1 << nbits) - 1)

    def align(self) -> None:
        """Discard remaining bits of the current byte (before a marker)."""
        self._nacc &= ~7

    def expect_rst(self, index: int) -> bool:
        """Consume an ``RSTn`` marker; returns False if absent (corruption).

        ``index`` is the restart counter; the marker must be
        ``0xFF, 0xD0 + (index & 7)``.  A missing marker is tolerated (the
        paper's §A.3 zero-run corruptions drop them) and reported to the
        caller, which decides whether the file round-trips.
        """
        if self._nacc & 7:
            raise JpegError("expect_rst while not byte aligned")
        if self._nacc:
            return False  # a buffered data byte comes first
        data, pos = self._data, self._pos
        if pos + 1 < len(data) and data[pos] == 0xFF and data[pos + 1] == 0xD0 + (index & 7):
            self._pos = pos + 2
            return True
        return False

    @property
    def byte_position(self) -> int:
        """Current byte offset in the underlying buffer (buffered bytes not
        yet read count as unread)."""
        pos, acc = self._pos, self._acc
        for _ in range(self._nacc >> 3):
            pos -= 2 if acc & 0xFF == 0xFF else 1
            acc >>= 8
        return pos

    @property
    def bits_pending(self) -> int:
        """Bits of the current byte not yet consumed."""
        return self._nacc & 7
