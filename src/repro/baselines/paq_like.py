"""PAQ8PX stand-in: bitwise logistic context mixing (§2).

PAQ models every *bit* of the file with a mixture of context models whose
predictions are combined in the logistic domain and adapted by gradient
descent — vastly better adaptivity than independent bins, at a severe speed
cost (the paper measured 35×/50× slower than single-threaded Lepton).

This stand-in reproduces that architecture end to end:

* a JPEG front-end transform — coefficients are serialised in PackJPG-style
  planar order — mirroring PAQ8PX's JPEG model;
* a bitwise mixer over several coefficient contexts;
* a generic byte-oriented CM engine for the inputs Lepton rejects, which is
  how PAQ8PX "edges out single-threaded Lepton's compression ratio by 0.8
  percentage points ... because it incorporates a variety of alternative
  compression engines that work on the 3.6% of files that Lepton rejects"
  (§4.1).

Mixer weights use float arithmetic; within this reproduction (one platform,
one process) that is deterministic, which is all the round-trip property
needs here.
"""

import math
import struct
from typing import List

from repro.baselines.container import front_end, pack, restore, unpack
from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.errors import FormatError
from repro.jpeg.errors import JpegError
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

MAGIC_JPEG = b"PQ"
MAGIC_GENERIC = b"PG"

_STRETCH_CLAMP = 12.0


def _stretch(p: float) -> float:
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return math.log(p / (1.0 - p))


def _squash(x: float) -> float:
    if x > _STRETCH_CLAMP:
        x = _STRETCH_CLAMP
    elif x < -_STRETCH_CLAMP:
        x = -_STRETCH_CLAMP
    return 1.0 / (1.0 + math.exp(-x))


class Mixer:
    """Logistic mixing of N model predictions with online weight updates."""

    def __init__(self, n_inputs: int, learning_rate: float = 0.02):
        self.weights = [0.3] * n_inputs
        self.lr = learning_rate
        self._inputs: List[float] = []

    def mix(self, probs: List[float]) -> float:
        """Combine P(bit=1) estimates into one prediction."""
        self._inputs = [_stretch(p) for p in probs]
        return _squash(sum(w * x for w, x in zip(self.weights, self._inputs)))

    def update(self, bit: int, predicted: float) -> None:
        err = self.lr * (bit - predicted)
        self.weights = [w + err * x for w, x in zip(self.weights, self._inputs)]


class CountModel:
    """A context model: per-context bit counts → probability estimate."""

    __slots__ = ("table",)

    def __init__(self):
        self.table = {}

    def predict(self, ctx) -> float:
        zeros, ones = self.table.get(ctx, (1, 1))
        return ones / (zeros + ones)

    def update(self, ctx, bit: int) -> None:
        zeros, ones = self.table.get(ctx, (1, 1))
        if bit:
            ones += 1
        else:
            zeros += 1
        if zeros + ones > 1024:
            zeros, ones = (zeros + 1) // 2, (ones + 1) // 2
        self.table[ctx] = (zeros, ones)


class _BitCM:
    """Shared bitwise CM engine: mixes k context models per coded bit."""

    def __init__(self, n_models: int):
        self.models = [CountModel() for _ in range(n_models)]
        self.mixer = Mixer(n_models)

    def code_bit(self, coder, contexts, bit=None) -> int:
        probs = [m.predict(c) for m, c in zip(self.models, contexts)]
        p1 = self.mixer.mix(probs)
        prob_zero = min(max(int((1.0 - p1) * 256), 1), 255)
        if bit is None:
            bit = coder.get(prob_zero)
        else:
            coder.put(bit, prob_zero)
        self.mixer.update(bit, p1)
        for m, c in zip(self.models, contexts):
            m.update(c, bit)
        return bit


def _code_generic(cm: _BitCM, coder, data: bytes = None, length: int = None):
    """Byte-stream CM: order-1/order-2/bit-position contexts."""
    out = bytearray()
    n = len(data) if data is not None else length
    prev1 = prev2 = 0
    for i in range(n):
        byte = data[i] if data is not None else 0
        partial = 1  # the "1" sentinel bit-prefix trick
        for b in range(7, -1, -1):
            contexts = (
                (0, prev1, partial),
                (1, prev1, prev2, partial),
                (2, partial),
            )
            bit = (byte >> b) & 1 if data is not None else None
            bit = cm.code_bit(coder, contexts, bit)
            partial = (partial << 1) | bit
        decoded = partial & 0xFF
        out.append(decoded)
        prev2, prev1 = prev1, decoded
    return bytes(out)


def _code_coefficients(cm: _BitCM, coder, coefficients, encoding: bool):
    """JPEG model: planar-order coefficients, value bits CM-coded."""
    for ci, comp in enumerate(coefficients):
        blocks_h, blocks_w = comp.shape[:2]
        for k in range(64):
            r = int(ZIGZAG_TO_RASTER[k])
            prev = 0
            for by in range(blocks_h):
                for bx in range(blocks_w):
                    above = int(comp[by - 1, bx, r]) if by > 0 else 0
                    value = int(comp[by, bx, r]) if encoding else None
                    decoded = _code_signed(cm, coder, ci, k, prev, above, value)
                    if not encoding:
                        comp[by, bx, r] = decoded
                    prev = decoded
    return coefficients


def _bucket(v: int) -> int:
    mag = min(abs(v).bit_length(), 10)
    return mag if v >= 0 else -mag


def _code_signed(cm, coder, ci, k, prev, above, value):
    """Unary-exponent + sign + residual, every bit through the mixer."""
    encoding = value is not None
    mag = abs(value) if encoding else 0
    exp = mag.bit_length() if encoding else 0
    pb, ab = _bucket(prev), _bucket(above)
    i = 0
    while True:
        contexts = ((3, ci, k, pb, i), (4, ci, k, ab, i), (5, ci, i))
        bit = (1 if i < exp else 0) if encoding else None
        bit = cm.code_bit(coder, contexts, bit)
        if not bit:
            break
        i += 1
        if i >= 12:
            break
    n = exp if encoding else i
    if n == 0:
        return 0
    sign_ctx = ((6, ci, k, pb), (7, ci, pb, ab), (8, ci))
    sign = (1 if value < 0 else 0) if encoding else None
    sign = cm.code_bit(coder, sign_ctx, sign)
    out = 1 << (n - 1)
    for j in range(n - 2, -1, -1):
        contexts = ((9, ci, k, n, j), (10, ci, n, j, pb), (11, ci, j))
        bit = ((mag >> j) & 1) if encoding else None
        bit = cm.code_bit(coder, contexts, bit)
        out |= bit << j
    return -out if sign else out


def compress(data: bytes) -> bytes:
    """Compress anything: JPEG model when possible, generic CM otherwise."""
    encoder = BoolEncoder()
    try:
        img = front_end(data, "paq-like")
    except (JpegError, FormatError):
        _code_generic(_BitCM(3), encoder, data=data)
        return MAGIC_GENERIC + struct.pack("<I", len(data)) + encoder.finish()
    _code_coefficients(_BitCM(3), encoder, img.coefficients, encoding=True)
    return pack(MAGIC_JPEG, img, encoder.finish())


def decompress(payload: bytes) -> bytes:
    """Recover the exact original bytes."""
    if payload[:2] == MAGIC_GENERIC:
        (length,) = struct.unpack_from("<I", payload, 2)
        cm = _BitCM(3)
        return _code_generic(cm, BoolDecoder(payload, start=6), length=length)
    img, coded, _, _ = unpack(payload, MAGIC_JPEG, "paq-like")
    _code_coefficients(_BitCM(3), BoolDecoder(coded), img.coefficients,
                       encoding=False)
    return restore(img)
