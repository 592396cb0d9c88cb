"""The Lepton container bytes are a frozen contract.

Every case below encodes a deterministic ``repro.corpus`` input and must
reproduce the committed payloads in ``golden/`` byte for byte; decoding
the committed payloads must give back the input, checked by its SHA-256.
``golden/manifest.json`` records each case's input digest and payload
files, plus the model-bin count and fixed-point information content of
two encodes, so a rewrite of the coefficient coder cannot move the
format, the context set or the Figure-4 accounting unnoticed.  The
Deflate payload comes from the interpreter's zlib.  Regenerate only for
a deliberate format change::

    PYTHONPATH=src python -m tests.core.test_golden_containers
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.baselines import mozjpeg_arith, packjpg_like
from repro.core.chunks import compress_chunked
from repro.core.lepton import (
    FORMAT_DEFLATE,
    FORMAT_LEPTON,
    LeptonConfig,
    compress,
    decompress,
)
from repro.core.model import COST_FRAC_BITS, ModelConfig
from repro.corpus.builder import corpus_jpeg
from repro.corpus.corruptions import not_an_image
from repro.corpus.images import synthetic_photo
from repro.jpeg.writer import encode_baseline_jpeg

GOLDEN = pathlib.Path(__file__).with_name("golden")
MANIFEST = GOLDEN / "manifest.json"

ABLATIONS = {
    "ablation_avg_gradient": ModelConfig(edge_mode="avg", dc_mode="gradient"),
    "ablation_lakhani_median8": ModelConfig(edge_mode="lakhani", dc_mode="median8"),
    "ablation_avg_packjpg": ModelConfig(edge_mode="avg", dc_mode="packjpg"),
}


def _cmyk() -> bytes:
    rgb = synthetic_photo(48, 64, seed=5)
    k = np.clip(255 - rgb.mean(axis=2, keepdims=True) * 0.5, 0, 255)
    return encode_baseline_jpeg(
        np.concatenate([rgb, k.astype(np.uint8)], axis=2), quality=85)


#: name -> input builder.
INPUTS = {
    "color_420": lambda: corpus_jpeg(seed=1, height=96, width=112, quality=90),
    "color_444": lambda: corpus_jpeg(seed=2, height=32, width=40, quality=90,
                                     subsampling="4:4:4"),
    "gray": lambda: corpus_jpeg(seed=3, height=40, width=48, quality=80,
                                grayscale=True),
    "restart": lambda: corpus_jpeg(seed=4, height=48, width=64, quality=85,
                                   restart_interval=3),
    "cmyk": _cmyk,
    "threads4": lambda: corpus_jpeg(seed=6, height=128, width=64, quality=85),
    # 1027 bytes: the second 1-KiB chunk holds only the scan's final pad
    # byte (offset 401 of 402, two pad bits) and the EOI marker.
    "chunked_pad_byte": lambda: corpus_jpeg(seed=46, height=64, width=64,
                                            quality=85),
    "chunked_multi": lambda: corpus_jpeg(seed=7, height=128, width=128,
                                         quality=90),
    "deflate": lambda: not_an_image(size=1200, seed=8),
    **{name: lambda: corpus_jpeg(seed=1, height=96, width=112, quality=90)
       for name in ABLATIONS},
    "packjpg_latest": lambda: corpus_jpeg(seed=9, height=32, width=48,
                                          quality=85),
    "packjpg_planar": lambda: corpus_jpeg(seed=9, height=32, width=48,
                                          quality=85),
    "mozjpeg_arith": lambda: corpus_jpeg(seed=9, height=32, width=48,
                                         quality=85),
}


def _lepton(config: LeptonConfig, fmt: str = FORMAT_LEPTON):
    def encode(data):
        result = compress(data, config)
        assert result.format == fmt, result.detail
        return [result.payload]

    def decode(payloads):
        return decompress(payloads[0], model_config=config.model)

    return encode, decode


def _chunked(chunk_size: int):
    def encode(data):
        chunks = compress_chunked(data, chunk_size, LeptonConfig())
        assert all(c.format == FORMAT_LEPTON for c in chunks)
        return [c.payload for c in chunks]

    def decode(payloads):
        return b"".join(decompress(p) for p in payloads)

    return encode, decode


def _baseline(module, **kwargs):
    return (lambda data: [module.compress(data, **kwargs)],
            lambda payloads: module.decompress(payloads[0]))


#: name -> (encode: bytes -> [payload], decode: [payload] -> bytes).
CODECS = {
    "color_420": _lepton(LeptonConfig(threads=1)),
    "color_444": _lepton(LeptonConfig(threads=1)),
    "gray": _lepton(LeptonConfig(threads=1)),
    "restart": _lepton(LeptonConfig(threads=1)),
    "cmyk": _lepton(LeptonConfig(threads=1, allow_cmyk=True)),
    "threads4": _lepton(LeptonConfig(threads=4)),
    "chunked_pad_byte": _chunked(1024),
    "chunked_multi": _chunked(1024),
    "deflate": _lepton(LeptonConfig(), FORMAT_DEFLATE),
    **{name: _lepton(LeptonConfig(threads=1, model=config))
       for name, config in ABLATIONS.items()},
    "packjpg_latest": _baseline(packjpg_like, mode="latest"),
    "packjpg_planar": _baseline(packjpg_like, mode="planar"),
    "mozjpeg_arith": _baseline(mozjpeg_arith),
}

#: Cases whose EncodeStats are pinned: bins touched and 2^16 fixed-point
#: information content per Figure-4 category.
STATS_CASES = {
    "color_420": LeptonConfig(threads=1),
    "threads4": LeptonConfig(threads=4),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stats(config: LeptonConfig, data: bytes) -> dict:
    stats = compress(data, config).stats
    scale = 1 << COST_FRAC_BITS
    return {
        "model_bins": stats.model_bins,
        "bit_costs_fix": {k: int(v * scale) for k, v in sorted(stats.bit_costs.items())},
    }


def _load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def _payloads(entry: dict):
    return [(GOLDEN / name).read_bytes() for name in entry["payloads"]]


def test_manifest_covers_every_case():
    manifest = _load_manifest()
    assert sorted(manifest["cases"]) == sorted(CODECS)
    assert sorted(manifest["stats"]) == sorted(STATS_CASES)
    committed = sum(p.stat().st_size for p in GOLDEN.iterdir())
    assert committed <= 64 * 1024


@pytest.mark.parametrize("case", sorted(CODECS))
def test_input_is_unchanged(case):
    """A corpus change would otherwise read as a codec change."""
    entry = _load_manifest()["cases"][case]
    data = INPUTS[case]()
    assert (len(data), _sha256(data)) == (entry["input_size"], entry["input_sha256"])


@pytest.mark.parametrize("case", sorted(CODECS))
def test_encode_reproduces_golden_bytes(case):
    entry = _load_manifest()["cases"][case]
    encode, _ = CODECS[case]
    assert encode(INPUTS[case]()) == _payloads(entry)


@pytest.mark.parametrize("case", sorted(CODECS))
def test_decode_of_golden_bytes_reproduces_input(case):
    entry = _load_manifest()["cases"][case]
    _, decode = CODECS[case]
    assert _sha256(decode(_payloads(entry))) == entry["input_sha256"]


@pytest.mark.parametrize("case", sorted(STATS_CASES))
def test_model_bins_and_bit_costs_are_pinned(case):
    want = _load_manifest()["stats"][case]
    assert _stats(STATS_CASES[case], INPUTS[case]()) == want


def regenerate() -> None:
    """Rewrite ``golden/`` from the current codec (format changes only)."""
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    cases = {}
    for case in sorted(CODECS):
        data = INPUTS[case]()
        encode, decode = CODECS[case]
        payloads = encode(data)
        assert decode(payloads) == data
        names = []
        for index, payload in enumerate(payloads):
            name = f"{case}.{index}.bin"
            (GOLDEN / name).write_bytes(payload)
            names.append(name)
        cases[case] = {"input_size": len(data), "input_sha256": _sha256(data),
                       "payloads": names}
    stats = {case: _stats(config, INPUTS[case]())
             for case, config in sorted(STATS_CASES.items())}
    MANIFEST.write_text(json.dumps({"cases": cases, "stats": stats},
                                   indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
