"""Uniform codec interface for the Figure 1–3 benchmarks.

Every entry behaves like the corresponding bar of Figure 2: JPEG-aware
codecs raise on unsupported input (the benchmark then scores them like the
production pipeline would — fall back or skip), generic codecs accept
anything.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.baselines import generic, jpegrescan_like, mozjpeg_arith, packjpg_like, paq_like
from repro.core.lepton import LeptonConfig, compress as lepton_compress, decompress as lepton_decompress


@dataclass(frozen=True)
class Codec:
    """One compressor/decompressor pair with benchmark metadata."""

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]
    jpeg_aware: bool
    streaming: bool = False
    substitution_note: str = ""


def _lepton_compress_fn(threads: Optional[int]):
    def run(data: bytes) -> bytes:
        result = lepton_compress(
            data, LeptonConfig(threads=threads, deflate_fallback=False)
        )
        if not result.ok:
            raise ValueError(f"lepton rejected input: {result.exit_code.value}")
        return result.payload

    return run


def all_codecs() -> List[Codec]:
    """The Figure-2 codec lineup, left to right."""
    return [
        Codec("lepton", _lepton_compress_fn(None), lepton_decompress, True,
              streaming=True),
        Codec("lepton-1way", _lepton_compress_fn(1), lepton_decompress, True,
              streaming=True,
              substitution_note="single segment, whole-image model (§4.1)"),
        Codec("packjpg", packjpg_like.compress, packjpg_like.decompress, True,
              substitution_note="reimplementation of the global-sort technique"),
        Codec("paq8px", paq_like.compress, paq_like.decompress, True,
              substitution_note="bitwise logistic context mixing stand-in"),
        Codec("jpegrescan", jpegrescan_like.compress, jpegrescan_like.decompress,
              True, substitution_note="optimal-Huffman rebuild or progressive "
                                      "rewrite, smaller kept"),
        Codec("mozjpeg", mozjpeg_arith.compress, mozjpeg_arith.decompress, True,
              substitution_note="~300-bin spec-style arithmetic coding"),
        Codec("brotli", generic.brotli_sub_compress, generic.lzma_decompress,
              False, substitution_note="LZMA preset 2 stand-in (no brotli offline)"),
        Codec("deflate", generic.deflate_compress, generic.deflate_decompress,
              False),
        Codec("lzham", generic.lzham_sub_compress, generic.lzham_sub_decompress,
              False, substitution_note="BZ2 stand-in (no lzham offline)"),
        Codec("lzma", generic.lzma_compress, generic.lzma_decompress, False),
        Codec("zstandard", generic.zstd_sub_compress, generic.zstd_sub_decompress,
              False, substitution_note="Deflate level 1 stand-in (no zstd offline)"),
    ]


def get_codec(name: str) -> Codec:
    """Look up a codec by its Figure-2 name."""
    table: Dict[str, Codec] = {c.name: c for c in all_codecs()}
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; have {sorted(table)}") from None
