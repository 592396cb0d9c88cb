"""Declarative scope configuration for the lint engine.

Every rule carries a *scope*: a tuple of fnmatch-style glob patterns over
dotted module names (``repro.core.*``, ``repro.storage.fleet``).  The
default scopes encode the paper's invariants — e.g. rule D1 (no floating
point) binds exactly to the coded-path modules whose encoder/decoder
divergence §5.2 and §6.1 fight — so adding a rule or widening its reach is
a one-line config change, not an engine change.

Files that are *not* part of the ``repro`` package (fixture snippets, ad
hoc scripts passed to ``lepton lint``) match every per-module rule: outside
the package there is no scope information, and a determinism lint that
silently skips unknown files would defeat the point.
"""

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, Tuple

#: The §3 coded path: any float here can silently diverge encoder from
#: decoder across platforms or compiler versions (§5.2, §6.1).
CODED_PATH = (
    "repro.core.bool_coder",
    "repro.core.predictors",
    "repro.core.model",
    "repro.core.coefcoder",
    "repro.core.handover",
)

#: Modules that must be replayable: the codec, corpus generation (explicit
#: seeds only), the storage simulations (SimClock only, §5.5), and fault
#: injection — a chaos run that cannot replay cannot be debugged.  The
#: faults package is listed module by module: ``repro.faults.livechaos``
#: is deliberately absent — it boots real server subprocesses and times
#: real recoveries, so it legitimately reads wall clocks (the same
#: carve-out as ``repro.serve`` and ``repro.cli``).  It folds those
#: timings into booleans before building its fields, and renders them
#: through the one ``ChaosReport``, which stays in scope via
#: ``repro.faults.report``.
DETERMINISTIC = (
    "repro.core.*",
    "repro.corpus.*",
    "repro.storage.*",
    "repro.faults.chaos",
    "repro.faults.injector",
    "repro.faults.killpoints",
    "repro.faults.plan",
    "repro.faults.report",
)

#: The packages that share state across threads: the storage service and
#: its codec pool, the metrics registry and tracer, fault injection, the
#: HTTP front end, and the linter itself.  The lock rules (D4, D9) bind
#: here.
THREADED = (
    "repro.storage.*",
    "repro.obs.*",
    "repro.faults.*",
    "repro.serve.*",
    "repro.lint.*",
)

DEFAULT_SCOPES: Dict[str, Tuple[str, ...]] = {
    "D1": CODED_PATH,
    "D2": DETERMINISTIC,
    "D3": ("repro.*",),
    "D4": THREADED,
    # repro.serve is deliberately absent from D2: a live network server
    # legitimately reads wall clocks (same carve-out as repro.cli).
    "D5": ("repro.core.*", "repro.storage.*", "repro.corpus.*", "repro.obs.*",
           "repro.faults.*", "repro.serve.*", "repro.lint.*"),
    # Everywhere the Lepton pipeline is consumed.  repro.baselines is out of
    # scope by design: the comparison codecs (§2) are independent coders and
    # legitimately own their own BoolEncoder loops.
    "D6": ("repro.core.*", "repro.storage.*", "repro.corpus.*",
           "repro.analysis.*", "repro.cli", "repro.obs.*", "repro.faults.*",
           "repro.serve.*"),
    # D7 scopes the whole tree because the call-graph summary pass must see
    # potential callees everywhere; findings are only emitted for async
    # bodies in the serve path.
    "D7": ("repro.*",),
    "D8": ("repro.serve.*",),
    "D9": THREADED,
    "D10": ("repro.serve.*", "repro.storage.*", "repro.core.*",
            "repro.lint.*"),
}


@dataclass
class LintConfig:
    """Rule → module-glob scopes plus per-rule options."""

    scopes: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES)
    )
    options: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def in_scope(self, rule_id: str, module: str, in_package: bool = True) -> bool:
        """Does ``rule_id`` apply to dotted module name ``module``?

        ``in_package`` is False for files outside the ``repro`` package;
        those match every rule (see module docstring).
        """
        if not in_package:
            return True
        patterns = self.scopes.get(rule_id, ())
        return any(fnmatchcase(module, pattern) for pattern in patterns)

    def option(self, rule_id: str, key: str, default=None):
        return self.options.get(rule_id, {}).get(key, default)


def default_config() -> LintConfig:
    """The shipped configuration (what CI and qualification enforce)."""
    return LintConfig()
