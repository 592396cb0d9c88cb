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

The encoder's one bit loop, :meth:`~BoolEncoder.code_words`, codes those
calls packed into int64 *words*: Lepton's encode records a row band's
words first, through a :class:`RecordingCoder`, and codes them after
(:mod:`repro.core.session`); ``code_value``/``code_counter`` code a
stream of one word.

:meth:`~BoolEncoder.put` / :meth:`~BoolDecoder.get` code one bit under an
explicit probability, for coders with their own model (the PAQ-like
baseline).  The coder is deterministic, integer-only, and shared by
Lepton, the packjpg-like baseline, and the mozjpeg-arithmetic baseline.
"""

from typing import Dict, List, Optional, Sequence

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

#: A *word* is one ``code_value``/``code_counter`` call packed into an
#: int64, low bits first: the value plus :data:`WORD_BIAS` (16 bits), the
#: exponent cap or counter width (4 bits), :data:`WORD_COUNTER` for a
#: counter, an accounting tag (3 bits), then the context key.
WORD_BIAS = 1 << 15
WORD_COUNTER = 1 << 20
WORD_TAG_SHIFT = 21
WORD_KEY_SHIFT = 24


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
        ``code_words`` inlines this same arithmetic.
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
        if (-value if value < 0 else value) >> max_exp:
            raise ValueOutOfRange(f"value {value} exceeds exponent cap {max_exp}")
        self.code_words(bins, ((key << WORD_KEY_SHIFT) | (max_exp << 16)
                               | (value + WORD_BIAS),), (acct,))
        return value

    def code_counter(self, bins: dict, key: int, nbits: int, value: int,
                     acct: Optional[List[int]] = None) -> int:
        """Code the ``nbits``-wide ``value`` through its prefix tree of bins
        at ``key + 1 .. key + 2^nbits − 1``; returns ``value``."""
        self.code_words(bins, ((key << WORD_KEY_SHIFT) | WORD_COUNTER
                               | (nbits << 16) | (value + WORD_BIAS),), (acct,))
        return value

    def code_words(self, bins: dict, words,
                   accounts: Sequence[Optional[List[int]]] = (None,)) -> None:
        """Code a stream of packed calls (see :data:`WORD_KEY_SHIFT`) in
        order, each as ``code_value``/``code_counter`` would; a word's
        tag picks its accumulator from ``accounts`` (``None``: none).

        This is the encoder's one bit loop: a value's unary exponent (plus
        the terminating zero below the cap), sign and residual bits, or a
        counter's prefix-tree path, as one word read MSB first, the bit for
        ``slots[i]`` in bin ``key + slots[i]``.
        """
        out = self._out
        rng, bottom, bc = self._range, self._bottom, self._bit_count
        for packed in words:
            value = (packed & 0xFFFF) - WORD_BIAS
            width = (packed >> 16) & 15
            key = packed >> WORD_KEY_SHIFT
            acct = accounts[(packed >> WORD_TAG_SHIFT) & 7]
            if packed & WORD_COUNTER:
                slots = _TREE_SLOTS[width][value]
                word = value
            else:
                mag = -value if value < 0 else value
                exp = mag.bit_length()
                slots = _VALUE_SLOTS[width][exp]
                if exp:
                    unary = ((1 << exp) - 1) << (exp < width)
                    word = (((unary << 1) | (value < 0)) << (exp - 1)) | (
                        mag & ((1 << (exp - 1)) - 1))
                else:
                    word = 0
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


class RecordingCoder:
    """An encode's modelling-stage coder: :class:`BoolEncoder`'s
    ``code_value``/``code_counter`` signature, but each call only appends
    its packed word (:data:`WORD_KEY_SHIFT`) to :attr:`words` and returns
    the value, for :meth:`BoolEncoder.code_words` to code later.

    A value past its exponent cap raises the same
    :class:`~repro.core.errors.ValueOutOfRange` at the same call as the
    coder would.  ``accounts`` are the modelling model's Figure-4
    accumulators; a word's tag records which one its call named (1 for
    the first), so the coding stage adds its bit costs to the same one.
    """

    __slots__ = ("words", "_append", "_tags")

    def __init__(self, accounts: Optional[Dict[str, List[int]]] = None):
        self.words: List[int] = []
        self._append = self.words.append
        self._tags = {id(acct): tag for tag, acct
                      in enumerate((accounts or {}).values(), start=1)}

    def code_value(self, bins: dict, key: int, value: int, max_exp: int,
                   acct: Optional[List[int]] = None) -> int:
        if (-value if value < 0 else value) >> max_exp:
            raise ValueOutOfRange(
                f"value {value} exceeds exponent cap {max_exp}")
        word = (key << WORD_KEY_SHIFT) | (max_exp << 16) | (value + WORD_BIAS)
        if acct is not None:
            word |= self._tags[id(acct)] << WORD_TAG_SHIFT
        self._append(word)
        return value

    def code_counter(self, bins: dict, key: int, nbits: int, value: int,
                     acct: Optional[List[int]] = None) -> int:
        word = ((key << WORD_KEY_SHIFT) | WORD_COUNTER | (nbits << 16)
                | (value + WORD_BIAS))
        if acct is not None:
            word |= self._tags[id(acct)] << WORD_TAG_SHIFT
        self._append(word)
        return value

    def take(self) -> List[int]:
        """The words recorded since the last call."""
        words = self.words
        self.words = []
        self._append = self.words.append
        return words


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
