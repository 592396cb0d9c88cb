"""repro — a pure-Python reproduction of Lepton (NSDI 2017).

Lepton losslessly recompresses baseline JPEG files to ~77% of their original
size by replacing the Huffman entropy layer with an adaptive, parallelised
arithmetic code, and recovers the exact original bytes on decode.

Public entry points:

* :func:`repro.compress` / :func:`repro.decompress` — the codec itself
  (re-exported from :mod:`repro.core.lepton`).
* :mod:`repro.storage` — a Dropbox-like chunked storage backend simulation
  (blockservers, outsourcing, backfill, safety mechanisms).
* :mod:`repro.corpus` — deterministic synthetic JPEG corpora.
* :mod:`repro.baselines` — the comparator codecs from the paper's evaluation.
"""

__version__ = "1.0.0"

_LEPTON_EXPORTS = (
    "CompressionResult",
    "compress",
    "decompress",
    "roundtrip_check",
)

__all__ = list(_LEPTON_EXPORTS) + ["__version__"]


def __getattr__(name):
    # Lazy re-export so that `import repro.jpeg` does not pull in the whole
    # codec stack (PEP 562).
    if name in _LEPTON_EXPORTS:
        from repro.core import lepton

        return getattr(lepton, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
