"""The VP8-style range coder: exactness, compression, robustness."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bool_coder import BoolDecoder, BoolEncoder


class TestRoundtrip:
    def test_empty_stream(self):
        data = BoolEncoder().finish()
        assert len(data) == 4  # the flush bytes

    def test_single_bit_each_value(self):
        for bit in (0, 1):
            enc = BoolEncoder()
            enc.put(bit, 128)
            dec = BoolDecoder(enc.finish())
            assert dec.get(128) == bit

    def test_alternating_bits(self):
        bits = [i % 2 for i in range(500)]
        enc = BoolEncoder()
        for b in bits:
            enc.put(b, 128)
        dec = BoolDecoder(enc.finish())
        assert [dec.get(128) for _ in bits] == bits

    def test_extreme_probabilities(self):
        """prob=1 and prob=255 are the adaptive model's saturation points."""
        pattern = [0] * 300 + [1] * 300 + [0, 1] * 50
        for prob in (1, 255):
            enc = BoolEncoder()
            for b in pattern:
                enc.put(b, prob)
            dec = BoolDecoder(enc.finish())
            assert [dec.get(prob) for _ in pattern] == pattern

    def test_carry_propagation_stress(self):
        """Improbable bits under extreme probs maximise carry events."""
        enc = BoolEncoder()
        for _ in range(2000):
            enc.put(1, 255)  # always the 'wrong' (improbable) branch
        data = enc.finish()
        dec = BoolDecoder(data)
        assert all(dec.get(255) == 1 for _ in range(2000))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 255)),
                    max_size=400))
    def test_roundtrip_property(self, pairs):
        enc = BoolEncoder()
        for bit, prob in pairs:
            enc.put(bit, prob)
        dec = BoolDecoder(enc.finish())
        assert [dec.get(p) for _, p in pairs] == [b for b, _ in pairs]


class TestCompression:
    def test_skewed_stream_compresses(self):
        enc = BoolEncoder()
        for _ in range(10_000):
            enc.put(0, 250)
        assert len(enc.finish()) < 10_000 / 8 / 5  # ≫5x vs raw bits

    def test_uniform_stream_does_not_compress(self):
        rng = random.Random(7)
        enc = BoolEncoder()
        n = 8000
        for _ in range(n):
            enc.put(rng.randint(0, 1), 128)
        size = len(enc.finish())
        assert size >= n / 8 - 2  # entropy limit: can't beat 1 bit/bit

    def test_cost_tracks_probability(self):
        """Better-matched probabilities yield smaller output."""
        bits = [0] * 900 + [1] * 100
        sizes = {}
        for prob in (128, 230):
            enc = BoolEncoder()
            for b in bits:
                enc.put(b, prob)
            sizes[prob] = len(enc.finish())
        assert sizes[230] < sizes[128]


class TestRobustness:
    def test_truncated_stream_returns_bits_not_crash(self):
        enc = BoolEncoder()
        for i in range(100):
            enc.put(i % 2, 128)
        data = enc.finish()[: 3]
        dec = BoolDecoder(data)
        out = [dec.get(128) for _ in range(100)]  # garbage but no exception
        assert len(out) == 100
        assert set(out) <= {0, 1}

    def test_empty_input_decodes_zeros(self):
        dec = BoolDecoder(b"")
        assert dec.get(128) in (0, 1)

    def test_decoder_window(self):
        """start/end restrict the decoder to a slice of a larger buffer."""
        enc = BoolEncoder()
        for _ in range(64):
            enc.put(1, 20)
        coded = enc.finish()
        framed = b"JUNK" + coded + b"MORE"
        dec = BoolDecoder(framed, start=4, end=4 + len(coded))
        assert all(dec.get(20) == 1 for _ in range(64))

    def test_consumed_tracks_position(self):
        enc = BoolEncoder()
        for _ in range(256):
            enc.put(0, 128)
        coded = enc.finish()
        dec = BoolDecoder(coded)
        for _ in range(256):
            dec.get(128)
        assert dec.consumed <= len(coded)


def _bit_by_bit(ops):
    """Reference: each value or counter as single ``put`` calls, stepping
    the same bin states through the model's tables."""
    from repro.core.bool_coder import SIGN_SLOT
    from repro.core.model import INITIAL_STATE, NEXT0, NEXT1, PROB

    enc, bins = BoolEncoder(), {}

    def bit(key, b):
        state = bins.get(key, INITIAL_STATE)
        enc.put(b, PROB[state])
        bins[key] = NEXT1[state] if b else NEXT0[state]

    for kind, key, value, width in ops:
        if kind == "counter":
            for depth in range(width):
                bit(key + ((1 << depth) | (value >> (width - depth))),
                    (value >> (width - 1 - depth)) & 1)
            continue
        mag = abs(value)
        exp = mag.bit_length()
        for i in range(min(exp + 1, width)):
            bit(key + i, int(i < exp))
        if exp:
            bit(key + SIGN_SLOT, int(value < 0))
            for j in range(exp - 2, -1, -1):
                bit(key + ((exp << 4) | j), (mag >> j) & 1)
    return enc.finish(), bins


_OPS = st.lists(st.one_of(
    st.tuples(st.just("value"), st.sampled_from([0, 256, 512]),
              st.integers(-(1 << 14) + 1, (1 << 14) - 1), st.just(14)),
    st.tuples(st.just("value"), st.sampled_from([0, 768]),
              st.integers(-3, 3), st.sampled_from([2, 11])),
    st.tuples(st.just("value"), st.just(768), st.integers(-1, 1), st.just(1)),
    st.tuples(st.just("counter"), st.sampled_from([0, 1024]),
              st.integers(0, 7), st.just(3)),
    st.tuples(st.just("counter"), st.just(1280), st.integers(0, 63), st.just(6)),
), max_size=300)


class TestFusedLoops:
    """``code_value``/``code_counter`` inline the range coder and the bin
    tables; they must produce exactly what single-bit coding produces."""

    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_match_single_bit_coding(self, ops):
        want, want_bins = _bit_by_bit(ops)
        enc, bins = BoolEncoder(), {}
        for kind, key, value, width in ops:
            if kind == "counter":
                enc.code_counter(bins, key, width, value)
            else:
                enc.code_value(bins, key, value, width)
        assert enc.finish() == want
        assert bins == want_bins
        dec, bins = BoolDecoder(want), {}
        for kind, key, value, width in ops:
            if kind == "counter":
                assert dec.code_counter(bins, key, width, 0) == value
            else:
                assert dec.code_value(bins, key, 0, width) == value
        assert bins == want_bins
