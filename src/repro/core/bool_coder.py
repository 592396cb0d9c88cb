"""VP8-style binary range coder (RFC 6386 §7.3, as modified by Lepton),
fused with the adaptive bins it codes against.

Lepton replaces baseline JPEG's Huffman layer with this arithmetic coder
(§3.1, footnote 1).  A bit is coded under an 8-bit probability ``prob`` =
P(bit == 0) scaled so that 1 ≤ prob ≤ 255.  The encoder keeps a 32-bit
window of unresolved output with explicit carry propagation; the decoder
mirrors it with a 16-bit value register.

Almost every bit Lepton codes belongs to one of two shapes, and each
shape is one loop per direction here:

* :meth:`~BoolEncoder.code_value` — a signed Exp-Golomb value: a unary
  exponent (bit ``i`` in slot ``i``, no terminator at the cap), a sign
  (slot :data:`SIGN_SLOT`), then the residual bits below the leading one
  (for exponent ``e``, :data:`RESIDUAL_SLOTS` ``[e]``);
* :meth:`~BoolEncoder.code_counter` — an ``nbits``-wide counter through a
  prefix tree: the bit at depth ``d`` under prefix ``p`` uses slot
  ``(1 << d) | p`` (``2^nbits − 1`` tree nodes).

A value or counter owns the 256 bins at ``key .. key + 255`` of a
:class:`~repro.core.model.Model`'s int-keyed store.  Each loop reads a bin's
state, takes its probability from :data:`~repro.core.model.PROB`, steps it
through ``NEXT0``/``NEXT1`` and runs the range coder inline, so a coded bit
costs no method call, tuple or object.  Both classes offer the same two
methods with the same arguments: the encoder codes the ``value`` it is
given and returns it, the decoder ignores it and returns what it decodes.
That is what lets one context function serve both directions
(:mod:`repro.core.coefcoder`).  With an ``acct`` accumulator the encoder
also adds each bit's fixed-point Shannon cost to ``acct[0]``.

:meth:`~BoolEncoder.put` / :meth:`~BoolDecoder.get` code one bit under an
explicit probability, for coders with their own model (the PAQ-like
baseline).  The coder is deterministic, integer-only, and shared by
Lepton, the packjpg-like baseline, and the mozjpeg-arithmetic baseline.
"""

from typing import List, Optional

from repro.core.errors import FormatError, ValueOutOfRange
from repro.core.model import COST0, COST1, INITIAL_STATE, NEXT0, NEXT1, PROB

#: Left shifts that bring a range in 1..127 back to at least 128.
_NORM = [0] + [8 - r.bit_length() for r in range(1, 256)]

#: Largest unary exponent a value may use; the slots below stay disjoint.
MAX_EXPONENT = 14
SIGN_SLOT = 15
#: ``RESIDUAL_SLOTS[e]``: slots of the residual bits ``e − 2 .. 0`` of a
#: value with exponent ``e``, most significant first.
RESIDUAL_SLOTS = [()] + [tuple((e << 4) | j for j in range(e - 2, -1, -1))
                         for e in range(1, MAX_EXPONENT + 1)]
#: ``_TAIL_SLOTS[e]``: the sign slot, then the residual slots.
_TAIL_SLOTS = [(SIGN_SLOT,) + slots for slots in RESIDUAL_SLOTS]
#: ``_VALUE_SLOTS[max_exp][e]``: every slot a value of exponent ``e``
#: codes under exponent cap ``max_exp``, in coding order.
_VALUE_SLOTS = [
    [tuple(range(min(e + 1, cap))) + (_TAIL_SLOTS[e] if e else ())
     for e in range(cap + 1)]
    for cap in range(MAX_EXPONENT + 1)
]
#: ``_TREE_SLOTS[nbits][v]``: the prefix-tree nodes counter value ``v``
#: visits, root first.
_TREE_SLOTS = [
    [tuple((1 << d) | (v >> (nbits - d)) for d in range(nbits))
     for v in range(1 << nbits)]
    for nbits in range(7)
]


def _carry(out: bytearray, count: int = 1) -> None:
    """Add ``count`` to the bytes already emitted (carry propagation)."""
    for _ in range(count):
        i = len(out) - 1
        while i >= 0 and out[i] == 0xFF:
            out[i] = 0
            i -= 1
        if i < 0:
            raise FormatError("arithmetic coder carry underflow")
        out[i] += 1


class BoolEncoder:
    """Arithmetic encoder for booleans under adaptive probabilities."""

    def __init__(self):
        self._out = bytearray()
        self._range = 255
        self._bottom = 0
        self._bit_count = 24

    def put(self, bit: int, prob: int) -> None:
        """Encode ``bit`` given ``prob`` = P(bit == 0) in [1, 255]."""
        split = 1 + (((self._range - 1) * prob) >> 8)
        if bit:
            self._bottom += split
            self._range -= split
            if self._bottom >> 32:  # carry out of the window on the add
                _carry(self._out)
                self._bottom &= 0xFFFFFFFF
        else:
            self._range = split
        if self._range < 128:
            self._renormalise()

    def _renormalise(self) -> None:
        """Shift the window until the range is back to at least 128.

        Each one-bit shift first carries a set bit 31 into the output, and
        every 8 shifts (24 for the first byte) the top byte is emitted;
        ``code_value``/``code_counter`` inline this same arithmetic.
        """
        rng, bottom, bc = self._range, self._bottom, self._bit_count
        shift = _NORM[rng]
        rng <<= shift
        lead = shift if shift < bc else bc  # shifts before a byte is due
        if bottom >> (32 - lead):
            _carry(self._out, bin(bottom >> (32 - lead)).count("1"))
            bottom &= (1 << (32 - lead)) - 1
        bottom <<= lead
        if shift < bc:
            bc -= shift
        else:
            self._out.append(bottom >> 24)
            bottom = (bottom & 0xFFFFFF) << (shift - lead)
            bc += 8 - shift
        self._range, self._bottom, self._bit_count = rng, bottom, bc

    def code_value(self, bins: dict, key: int, value: int, max_exp: int,
                   acct: Optional[List[int]] = None) -> int:
        """Code the signed Exp-Golomb ``value`` (|value| < 2^max_exp) under
        the bins at ``key .. key + 255``; returns ``value``."""
        mag = -value if value < 0 else value
        exp = mag.bit_length()
        if exp > max_exp:
            raise ValueOutOfRange(f"value {value} exceeds exponent cap {max_exp}")
        slots = _VALUE_SLOTS[max_exp][exp]
        if exp:
            # Unary ones (plus the terminating zero below the cap), the
            # sign, then the residual bits, as one word read MSB first.
            unary = ((1 << exp) - 1) << (exp < max_exp)
            word = (((unary << 1) | (value < 0)) << (exp - 1)) | (
                mag & ((1 << (exp - 1)) - 1))
        else:
            word = 0
        self._code_bits(bins, key, slots, word, acct)
        return value

    def code_counter(self, bins: dict, key: int, nbits: int, value: int,
                     acct: Optional[List[int]] = None) -> int:
        """Code the ``nbits``-wide ``value`` through its prefix tree of bins
        at ``key + 1 .. key + 2^nbits − 1``; returns ``value``."""
        self._code_bits(bins, key, _TREE_SLOTS[nbits][value], value, acct)
        return value

    def _code_bits(self, bins, key, slots, word, acct) -> None:
        """Code the low ``len(slots)`` bits of ``word``, MSB first, the
        bit for ``slots[i]`` in bin ``key + slots[i]``."""
        out = self._out
        rng, bottom, bc = self._range, self._bottom, self._bit_count
        n = len(slots)
        for slot in slots:
            n -= 1
            k = key + slot
            state = bins.get(k, INITIAL_STATE)
            prob = PROB[state]
            split = 1 + (((rng - 1) * prob) >> 8)
            if (word >> n) & 1:
                bins[k] = NEXT1[state]
                if acct is not None:
                    acct[0] += COST1[prob]
                bottom += split
                rng -= split
                if bottom >> 32:
                    _carry(out)
                    bottom &= 0xFFFFFFFF
            else:
                bins[k] = NEXT0[state]
                if acct is not None:
                    acct[0] += COST0[prob]
                rng = split
            if rng < 128:
                shift = _NORM[rng]
                rng <<= shift
                lead = shift if shift < bc else bc
                if bottom >> (32 - lead):
                    _carry(out, bin(bottom >> (32 - lead)).count("1"))
                    bottom &= (1 << (32 - lead)) - 1
                bottom <<= lead
                if shift < bc:
                    bc -= shift
                else:
                    out.append(bottom >> 24)
                    bottom = (bottom & 0xFFFFFF) << (shift - lead)
                    bc += 8 - shift
        self._range, self._bottom, self._bit_count = rng, bottom, bc

    def finish(self) -> bytes:
        """Flush the 32-bit window and return the coded byte stream."""
        c = self._bit_count
        v = self._bottom
        if v & (1 << (32 - c)):
            _carry(self._out)
        v = (v << (c & 7)) & 0xFFFFFFFF
        for _ in range(c >> 3):
            v = (v << 8) & 0xFFFFFFFF
        for _ in range(4):
            self._out.append((v >> 24) & 0xFF)
            v = (v << 8) & 0xFFFFFFFF
        return bytes(self._out)

    def __len__(self) -> int:
        return len(self._out)


class BoolDecoder:
    """Arithmetic decoder matching :class:`BoolEncoder`."""

    def __init__(self, data: bytes, start: int = 0, end: Optional[int] = None):
        self._data = data
        self._pos = start
        self._end = len(data) if end is None else end
        self._range = 255
        # Reading past the coded data yields zeros: the encoder's flush
        # pads with four bytes, so a *well-formed* stream never needs them,
        # but a truncated container must not crash the decoder (§5.7: failed
        # decodes are detected by the round-trip/size checks, not by UB).
        value = 0
        for _ in range(2):
            value <<= 8
            if self._pos < self._end:
                value |= data[self._pos]
                self._pos += 1
        self._value = value
        self._bit_count = 0

    def get(self, prob: int) -> int:
        """Decode one boolean under ``prob`` = P(bit == 0) in [1, 255]."""
        split = 1 + (((self._range - 1) * prob) >> 8)
        big_split = split << 8
        if self._value >= big_split:
            bit = 1
            self._range -= split
            self._value -= big_split
        else:
            bit = 0
            self._range = split
        if self._range < 128:
            self._renormalise()
        return bit

    def _renormalise(self) -> None:
        """Shift in bits until the range is back to at least 128, reading
        the next byte every 8 shifts; the value loops inline this."""
        shift = _NORM[self._range]
        self._range <<= shift
        value = (self._value << shift) & 0xFFFF
        bc = self._bit_count + shift
        if bc >= 8:
            bc -= 8
            if self._pos < self._end:
                value |= self._data[self._pos] << bc
                self._pos += 1
        self._value, self._bit_count = value, bc

    def code_value(self, bins: dict, key: int, value: int, max_exp: int,
                   acct: Optional[List[int]] = None) -> int:
        """Decode a signed Exp-Golomb value coded by
        :meth:`BoolEncoder.code_value` (``value`` and ``acct`` unused)."""
        data, end = self._data, self._end
        rng, val, bc, pos = self._range, self._value, self._bit_count, self._pos
        # The unary exponent: ones until a zero or the cap.
        exp = 0
        k = key
        while True:
            state = bins.get(k, INITIAL_STATE)
            split = 1 + (((rng - 1) * PROB[state]) >> 8)
            big = split << 8
            if val >= big:
                bins[k] = NEXT1[state]
                rng -= split
                val -= big
                bit = 1
            else:
                bins[k] = NEXT0[state]
                rng = split
                bit = 0
            if rng < 128:
                shift = _NORM[rng]
                rng <<= shift
                val = (val << shift) & 0xFFFF
                bc += shift
                if bc >= 8:
                    bc -= 8
                    if pos < end:
                        val |= data[pos] << bc
                        pos += 1
            if not bit:
                break
            exp += 1
            if exp >= max_exp:
                break
            k += 1
        # The sign, then the residual bits, as one word.
        word = 0
        if exp:
            for slot in _TAIL_SLOTS[exp]:
                k = key + slot
                state = bins.get(k, INITIAL_STATE)
                split = 1 + (((rng - 1) * PROB[state]) >> 8)
                big = split << 8
                if val >= big:
                    bins[k] = NEXT1[state]
                    rng -= split
                    val -= big
                    word = (word << 1) | 1
                else:
                    bins[k] = NEXT0[state]
                    rng = split
                    word <<= 1
                if rng < 128:
                    shift = _NORM[rng]
                    rng <<= shift
                    val = (val << shift) & 0xFFFF
                    bc += shift
                    if bc >= 8:
                        bc -= 8
                        if pos < end:
                            val |= data[pos] << bc
                            pos += 1
        self._range, self._value, self._bit_count, self._pos = rng, val, bc, pos
        if not exp:
            return 0
        mag = (1 << (exp - 1)) | (word & ((1 << (exp - 1)) - 1))
        return -mag if word >> (exp - 1) else mag

    def code_counter(self, bins: dict, key: int, nbits: int, value: int,
                     acct: Optional[List[int]] = None) -> int:
        """Decode an ``nbits``-wide counter coded by
        :meth:`BoolEncoder.code_counter` (``value`` and ``acct`` unused)."""
        data, end = self._data, self._end
        rng, val, bc, pos = self._range, self._value, self._bit_count, self._pos
        node = 1
        for _ in range(nbits):
            k = key + node
            state = bins.get(k, INITIAL_STATE)
            split = 1 + (((rng - 1) * PROB[state]) >> 8)
            big = split << 8
            if val >= big:
                bins[k] = NEXT1[state]
                rng -= split
                val -= big
                node = (node << 1) | 1
            else:
                bins[k] = NEXT0[state]
                rng = split
                node <<= 1
            if rng < 128:
                shift = _NORM[rng]
                rng <<= shift
                val = (val << shift) & 0xFFFF
                bc += shift
                if bc >= 8:
                    bc -= 8
                    if pos < end:
                        val |= data[pos] << bc
                        pos += 1
        self._range, self._value, self._bit_count, self._pos = rng, val, bc, pos
        return node - (1 << nbits)

    @property
    def consumed(self) -> int:
        """Bytes consumed from the underlying buffer so far."""
        return self._pos
