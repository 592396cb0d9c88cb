"""Lepton's adaptive probability model: statistic bins and their contexts.

A "statistic bin" (§3.2) tracks how often a particular binary decision came
out 0 vs 1 in a particular context, and supplies the probability for the
next occurrence.  A bin here is one small integer, its *state*
``zeros << 8 | ones``: both counts start at 1 (the 50/50 prior) and are
renormalised by halving when either saturates a byte, matching Lepton's u8
counters.  The tables :data:`PROB`, :data:`NEXT0` and :data:`NEXT1`, built
once at import from that rule, give a state's probability and its successor
after a 0 or a 1, so coding a bit is two list lookups and no object.

Production Lepton preallocates 721,564 bins indexed arithmetically.  The
coder here computes the same kind of integer index — a *context key* — but
keeps the bins in a dict keyed by it, so the store holds only the bins an
image actually touches (an untouched bin would stay at 50/50 anyway) and
the working set stays proportional to the contexts seen.

Bins are *independent*: learning in one context never leaks into another
(§3.2).  Each thread segment gets a fresh :class:`Model`, which is exactly
why adding threads costs compression (§3.4) — an effect measured by
``benchmarks/bench_fig8_encode_speed_threads.py``.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

# --- fixed-point information accounting -----------------------------------

#: Fractional bits of the fixed-point Shannon costs below.
COST_FRAC_BITS = 16


def _log2_fix(x: int, frac_bits: int = COST_FRAC_BITS) -> int:
    """⌊log₂(x) · 2^frac_bits⌋ by shift-and-square, in exact integer
    arithmetic — no libm, so the value is identical on every platform
    (rule D1: the coded path and its tables never touch floats)."""
    if x <= 0:
        raise ValueError("log2 of a non-positive value")
    int_part = x.bit_length() - 1
    result = int_part << frac_bits
    # Mantissa in [1, 2) as a Q31 fixed-point value.
    if int_part <= 31:
        mantissa = x << (31 - int_part)
    else:
        mantissa = x >> (int_part - 31)
    for i in range(frac_bits):
        mantissa = (mantissa * mantissa) >> 31
        if mantissa >= (2 << 31):
            mantissa >>= 1
            result |= 1 << (frac_bits - 1 - i)
    return result


#: Shannon cost (in bits scaled by 2^16) of coding a *zero* bit under
#: probability ``p/256``: −log₂(p/256) = 8 − log₂(p).  A *one* bit under
#: probability ``p`` costs ``_BIT_COST[256 − p]``.
_BIT_COST = [0] * 257
for _p in range(1, 256):
    _BIT_COST[_p] = (8 << COST_FRAC_BITS) - _log2_fix(_p)

#: Cost of coding a 0 / a 1 when P(bit == 0) is ``prob``, indexed by prob.
COST0 = _BIT_COST[:256]
COST1 = [0] + [_BIT_COST[256 - p] for p in range(1, 256)]

# --- bin states -----------------------------------------------------------

#: A fresh bin: one zero and one one seen, P(bit == 0) = 128/256.
INITIAL_STATE = (1 << 8) | 1


def _state_tables():
    """``PROB``, ``NEXT0`` and ``NEXT1`` over all 2^16 states.

    ``PROB[s]`` is P(bit == 0) = 256·zeros/(zeros+ones), clamped to
    [1, 255] for the range coder.  Recording a bit increments its count;
    a count that passes 255 restarts at 128 and halves the other one
    (never below 1).  Only states with both counts in 1..255 occur.
    """
    states = np.arange(1 << 16, dtype=np.int64)
    zeros = np.maximum(states >> 8, 1)
    ones = np.maximum(states & 0xFF, 1)
    prob = np.clip((zeros << 8) // (zeros + ones), 1, 255)

    def step(mine, other):
        mine = mine + 1
        full = mine > 255
        return (np.where(full, 128, mine),
                np.where(full, np.maximum((other + 1) >> 1, 1), other))

    z0, o0 = step(zeros, ones)
    o1, z1 = step(ones, zeros)
    return prob.tolist(), ((z0 << 8) | o0).tolist(), ((z1 << 8) | o1).tolist()


PROB, NEXT0, NEXT1 = _state_tables()

#: Figure-4 component categories the information accounting reports.
CATEGORIES = ("nnz", "7x7", "edge", "dc")


@dataclass
class ModelConfig:
    """Tunable model behaviour; defaults reproduce the paper's design.

    The alternates exist for the §4.3 ablations: ``edge_mode="avg"`` uses
    the same weighted-average prediction for the 7x1/1x7 coefficients as for
    the 7x7 block (baseline-PackJPG style), and ``dc_mode="packjpg"`` /
    ``"median8"`` downgrade DC prediction to the left-neighbour delta or the
    first-cut median-of-8 border match.
    """

    edge_mode: str = "lakhani"  # "lakhani" | "avg"
    dc_mode: str = "gradient"  # "gradient" | "median8" | "packjpg"
    max_value_exponent: int = 14  # unary exponent cap (values < 2^14)


class Model:
    """A bin store (context key → state) plus optional information
    accounting.

    With ``account=True``, :attr:`accounts` holds one fixed-point (2^16)
    accumulator per Figure-4 category — 'nnz', '7x7', 'edge', 'dc' — that
    the encoder adds each coded bit's Shannon information to; that is how
    the Figure-4 breakdown is measured without per-symbol byte boundaries.
    Without it the coder skips the accounting entirely, as serving does.
    """

    __slots__ = ("bins", "config", "accounts")

    def __init__(self, config: Optional[ModelConfig] = None, account: bool = False):
        self.bins: Dict[int, int] = {}
        self.config = config or ModelConfig()
        self.accounts: Optional[Dict[str, List[int]]] = (
            {category: [0] for category in CATEGORIES} if account else None
        )

    @property
    def bit_costs(self) -> Dict[str, float]:
        """Per-category information in bits (reporting only, hence the one
        sanctioned float conversion off the coded path)."""
        if self.accounts is None:
            return {}
        scale = 1 << COST_FRAC_BITS
        return {k: v[0] / scale for k, v in self.accounts.items()}  # lint: disable=D1

    @property
    def bin_count(self) -> int:
        return len(self.bins)


# --- shared context-bucketing helpers (encoder and decoder must agree) ----

# ⌊log₁.₅₉ n⌋ capped to 9, built in exact integer arithmetic: with
# 1.59 = 159/100, bucket(n) is the largest k ≤ 9 with 159^k ≤ n·100^k.
# (tests/core/test_model.py pins this table against the real-log formula.)
_NNZ_BUCKET = [0] * 50
for _n in range(1, 50):
    _k = 0
    while _k < 9 and 159 ** (_k + 1) <= _n * 100 ** (_k + 1):
        _k += 1
    _NNZ_BUCKET[_n] = _k


def nnz_bucket(n: int) -> int:
    """⌊log₁.₅₉ n⌋ capped to 0..9 — the paper's non-zero-count bucketing."""
    if n <= 0:
        return 0
    if n >= 50:
        return 9
    return _NNZ_BUCKET[n]


def avg_bucket(total_abs: int) -> int:
    """⌊log₂(weighted |neighbour| average)⌋ capped to 0..11 (§3.3)."""
    return min(total_abs.bit_length(), 11)


def pred_bucket(pred: int, cap: int = 11) -> int:
    """Signed log bucket of a predicted value: sign × ⌈log₂⌉, ±cap."""
    mag = min(abs(pred).bit_length(), cap)
    return mag if pred >= 0 else -mag


def confidence_bucket(spread: int) -> int:
    """Bucket the max−min spread of the 16 DC predictions (§A.2.3)."""
    return min(spread.bit_length(), 13)
