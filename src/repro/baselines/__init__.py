"""Comparator codecs from the paper's evaluation (Figures 1–3).

Each module reimplements the *technique* the paper attributes to a tool:

* :mod:`repro.baselines.generic` — Deflate/LZMA/BZ2 and documented
  stand-ins for Brotli/Zstandard/LZham (≤1% savings on JPEGs).
* :mod:`repro.baselines.packjpg_like` — globally sorted (planar)
  coefficient arithmetic coding: best-in-class ratio, single-threaded,
  whole-file-in-RAM, nothing streams.
* :mod:`repro.baselines.mozjpeg_arith` — spec-style arithmetic coding with
  a small (~300) bin set and no inter-block AC context.
* :mod:`repro.baselines.jpegrescan_like` — per-file optimal Huffman table
  rebuild and a progressive spectral-selection rewrite; by default it codes
  both and keeps the smaller, as JPEGrescan does (pixel-exact in the tools,
  file-preserving here).
* :mod:`repro.baselines.paq_like` — slow bitwise context mixing, the
  PAQ8PX stand-in.

The four JPEG-aware comparators share one frame around their coded bytes,
:mod:`repro.baselines.container`: the verified front end, the stored
header, pad bit, RST count and trailer, and the Huffman re-encode that
restores the file.

Use :func:`repro.baselines.registry.all_codecs` for the uniform interface
the benchmarks consume.
"""

from repro.baselines.registry import Codec, all_codecs, get_codec

__all__ = ["Codec", "all_codecs", "get_codec"]
