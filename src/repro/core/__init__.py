"""Lepton core: the paper's contribution.

* :mod:`repro.core.bool_coder` — VP8-style adaptive binary range coder
  (RFC 6386 §7; the paper's footnote 1).
* :mod:`repro.core.model` — the statistic-bin probability model (§3.2/3.3).
* :mod:`repro.core.predictors` — 7x7 averaging, Lakhani edge, and DC
  gradient predictors (§A.2).
* :mod:`repro.core.session` — the streaming encode and decode sessions,
  JPEG ↔ Lepton.
* :mod:`repro.core.chunks` — independent 4-MiB chunk compression.
* :mod:`repro.core.lepton` — the public API over the two sessions:
  ``compress``, ``decompress``, ``decompress_chunks`` and
  ``roundtrip_check``.
"""

from repro.core.errors import ExitCode

__all__ = ["ExitCode", "LeptonConfig", "compress", "decompress", "roundtrip_check"]

_LAZY = ("LeptonConfig", "compress", "decompress", "roundtrip_check")


def __getattr__(name):
    # Lazy: submodules like bool_coder are importable before lepton exists.
    if name in _LAZY:
        from repro.core import lepton

        return getattr(lepton, name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
