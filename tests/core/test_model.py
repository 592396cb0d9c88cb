"""Adaptive statistic bins and context bucketing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bool_coder import BoolEncoder
from repro.core.model import (
    INITIAL_STATE,
    NEXT0,
    NEXT1,
    PROB,
    Model,
    ModelConfig,
    avg_bucket,
    confidence_bucket,
    nnz_bucket,
    pred_bucket,
)


class Branch:
    """One bin stepped through the state tables, for readable tests."""

    def __init__(self):
        self.state = INITIAL_STATE

    @property
    def prob_zero(self):
        return PROB[self.state]

    @property
    def zeros(self):
        return self.state >> 8

    @property
    def ones(self):
        return self.state & 0xFF

    def record(self, bit):
        self.state = NEXT1[self.state] if bit else NEXT0[self.state]


class TestBranch:
    """The bin rule: u8 counts from (1, 1), halved when one saturates."""

    def test_starts_at_even_odds(self):
        assert Branch().prob_zero == 128

    def test_zeros_raise_prob_zero(self):
        b = Branch()
        for _ in range(20):
            b.record(0)
        assert b.prob_zero > 200

    def test_ones_lower_prob_zero(self):
        b = Branch()
        for _ in range(20):
            b.record(1)
        assert b.prob_zero < 56

    def test_prob_clamped_to_valid_range(self):
        b = Branch()
        for _ in range(10_000):
            b.record(0)
        assert 1 <= b.prob_zero <= 255

    def test_renormalisation_keeps_counts_in_byte(self):
        b = Branch()
        for i in range(10_000):
            b.record(i % 3 == 0)
        assert 1 <= b.zeros <= 255
        assert 1 <= b.ones <= 255

    def test_renormalisation_preserves_skew(self):
        b = Branch()
        for _ in range(300):
            b.record(0)
        before = b.prob_zero
        for _ in range(3):
            b.record(0)
        assert b.prob_zero >= before - 2  # halving must not flip the skew

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=2000))
    def test_prob_always_valid(self, bits):
        b = Branch()
        for bit in bits:
            b.record(bit)
            assert 1 <= b.prob_zero <= 255

    def test_tables_follow_the_counter_rule(self):
        """Every reachable state, against the rule written out longhand."""
        for zeros in range(1, 256):
            for ones in range(1, 256):
                state = (zeros << 8) | ones
                assert PROB[state] == min(max((zeros << 8) // (zeros + ones), 1), 255)
                z, o = zeros + 1, ones
                if z > 255:
                    z, o = 128, (o + 1) >> 1 or 1
                assert NEXT0[state] == (z << 8) | o
                z, o = zeros, ones + 1
                if o > 255:
                    z, o = (z + 1) >> 1 or 1, 128
                assert NEXT1[state] == (z << 8) | o


def _code_bit(model, key, bit, category="7x7"):
    """Code one adaptive bit in bin ``key + 1`` (a one-bit counter)."""
    acct = model.accounts[category] if model.accounts else None
    BoolEncoder().code_counter(model.bins, key << 8, 1, bit, acct)


class TestModel:
    def test_bins_created_lazily(self):
        m = Model()
        assert m.bin_count == 0
        _code_bit(m, 1, 0)
        _code_bit(m, 2, 0)
        _code_bit(m, 1, 1)  # same context: no new bin
        assert m.bin_count == 2

    def test_bins_are_independent(self):
        m = Model()
        _code_bit(m, 1, 0)
        assert PROB[m.bins.get((2 << 8) + 1, INITIAL_STATE)] == 128

    def test_charge_accumulates_information(self):
        m = Model(account=True)
        _code_bit(m, 1, 0, "dc")  # a fresh bin: P = 128/256
        assert m.bit_costs["dc"] == pytest.approx(1.0)
        _code_bit(m, 2, 1, "dc")
        assert m.bit_costs["dc"] == pytest.approx(2.0)

    def test_charge_weights_by_surprise(self):
        skewed = (255 << 8) | 6
        assert PROB[skewed] == 250
        m = Model(account=True)
        m.bins[(1 << 8) + 1] = skewed
        _code_bit(m, 1, 0)  # expected: cheap
        cheap = m.bit_costs["7x7"]
        m2 = Model(account=True)
        m2.bins[(1 << 8) + 1] = skewed
        _code_bit(m2, 1, 1)  # surprising: expensive
        assert m2.bit_costs["7x7"] > cheap * 5

    def test_no_accounting_unless_asked(self):
        m = Model()
        _code_bit(m, 1, 0)
        assert m.accounts is None
        assert m.bit_costs == {}

    def test_default_config(self):
        assert Model().config.edge_mode == "lakhani"
        assert Model().config.dc_mode == "gradient"

    def test_config_carried(self):
        config = ModelConfig(edge_mode="avg", dc_mode="packjpg")
        assert Model(config).config.dc_mode == "packjpg"


class TestBuckets:
    def test_nnz_bucket_zero(self):
        assert nnz_bucket(0) == 0

    def test_nnz_bucket_monotone(self):
        values = [nnz_bucket(n) for n in range(50)]
        assert values == sorted(values)
        assert max(values) == 8  # 1.59^9 ≈ 64 > 49
        assert nnz_bucket(64) == 9  # large counts saturate the last bucket

    def test_nnz_bucket_matches_log159(self):
        for n in (1, 2, 5, 10, 30, 49):
            assert nnz_bucket(n) == min(int(math.log(n) / math.log(1.59)), 9)

    def test_avg_bucket_caps(self):
        assert avg_bucket(0) == 0
        assert avg_bucket(1) == 1
        assert avg_bucket(10**9) == 11

    def test_pred_bucket_signed(self):
        assert pred_bucket(5) == 3
        assert pred_bucket(-5) == -3
        assert pred_bucket(0) == 0

    def test_pred_bucket_caps(self):
        assert pred_bucket(10**9) == 11
        assert pred_bucket(-(10**9)) == -11

    def test_confidence_bucket(self):
        assert confidence_bucket(0) == 0
        assert confidence_bucket(1) == 1
        assert confidence_bucket(1 << 20) == 13


class TestFixedPointCosts:
    """Regressions for the D1 fix: the information accounting moved from
    math.log2 to exact integer arithmetic; it must still agree with the
    float reference it replaced (and be bit-identical across platforms)."""

    def test_log2_fix_matches_libm(self):
        from repro.core.model import COST_FRAC_BITS, _log2_fix

        scale = 1 << COST_FRAC_BITS
        for x in (1, 2, 3, 7, 128, 255, 1000, (1 << 40) + 12345):
            assert _log2_fix(x) / scale == pytest.approx(
                math.log2(x), abs=2.0 / scale
            )

    def test_log2_fix_exact_on_powers_of_two(self):
        from repro.core.model import COST_FRAC_BITS, _log2_fix

        for k in range(0, 64, 7):
            assert _log2_fix(1 << k) == k << COST_FRAC_BITS

    def test_log2_fix_rejects_nonpositive(self):
        from repro.core.model import _log2_fix

        with pytest.raises(ValueError):
            _log2_fix(0)

    def test_bit_cost_table_matches_shannon(self):
        from repro.core.model import _BIT_COST, COST_FRAC_BITS

        scale = 1 << COST_FRAC_BITS
        for p in range(1, 256):
            assert _BIT_COST[p] / scale == pytest.approx(
                -math.log2(p / 256.0), abs=2.0 / scale
            )

    def test_nnz_bucket_table_matches_float_construction(self):
        from repro.core.model import _NNZ_BUCKET

        log159 = math.log(1.59)
        for n in range(1, 50):
            assert _NNZ_BUCKET[n] == min(int(math.log(n) / log159), 9)

    def test_charge_state_is_integer(self):
        m = Model(account=True)
        _code_bit(m, 1, 1, "edge")
        _code_bit(m, 2, 0, "edge")
        assert all(isinstance(v[0], int) for v in m.accounts.values())
        # The public property still reports float bits.
        assert m.bit_costs["edge"] > 0.0
