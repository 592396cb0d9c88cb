"""repro.lint — determinism & safety static analysis for the coded path.

The paper's deployment story rests on §5.4's guarantee that every encoder
build is bit-exact and round-trip verified; most real-world recompressor
incidents trace back to silent float/nondeterminism drift in the
probability model.  This package enforces those invariants *statically*:

* ``run_lint(["src/repro"])`` — lint files or trees, returns findings;
* ``lint_source(code)`` — lint an in-memory snippet (docs/tests);
* ``check_shipped_tree()`` — lint the installed ``repro`` package
  (memoised; the qualification gate and CI call this);
* ``python -m repro.lint src/repro [--json]`` or ``lepton lint`` — CLI;
  both parse their own flags and call :func:`lint_paths`.

Rules (documented in ``docs/lint.md``): D1 no floats on the coded path,
D2 no ambient entropy in deterministic modules, D3 exit-code
exhaustiveness, D4 lock-guarded shared state, D5 span/exception safety,
D6 codec-loop containment — plus the dataflow rules over per-function
CFGs: D7 no blocking calls on the event loop, D8 verified-byte taint
(never serve an unverified byte), D9 no ``await`` while a threading lock
is held, D10 resource lifecycle (released on every path).  Suppress
intentional sites with ``# lint: disable=<rule>``.  Naming some paths
lints just those files; the project-wide rules then see only them.
"""

import sys
import threading
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.config import DEFAULT_SCOPES, LintConfig, default_config
from repro.lint.engine import (
    Finding,
    LintEngine,
    collect_files,
    lint_source,
    run_lint,
)
from repro.lint.pragmas import parse_pragmas
from repro.lint.report import (
    SCHEMA_VERSION,
    render_json,
    render_text,
    to_json_dict,
)
from repro.lint.rules import RULES, all_rules

__all__ = [
    "DEFAULT_SCOPES",
    "Finding",
    "LintConfig",
    "LintEngine",
    "RULES",
    "SCHEMA_VERSION",
    "all_rules",
    "check_shipped_tree",
    "collect_files",
    "default_config",
    "lint_paths",
    "lint_source",
    "main",
    "parse_pragmas",
    "render_json",
    "render_text",
    "run_lint",
    "to_json_dict",
]

#: The installed ``repro`` package: what a run over no paths lints.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

_shipped_lock = threading.Lock()
_shipped_memo: dict = {}


def check_shipped_tree(refresh: bool = False) -> List[Finding]:
    """Lint the installed ``repro`` package under the default config.

    Memoised per process (source files do not change underneath a running
    build); the §5.7 qualification gate calls this on every run, so the
    second and later calls must be free.
    """
    with _shipped_lock:
        if refresh or "findings" not in _shipped_memo:
            _shipped_memo["findings"] = run_lint([_PACKAGE_ROOT])
        return list(_shipped_memo["findings"])


def lint_paths(paths: Sequence, as_json: bool = False,
               quiet: bool = False) -> int:
    """Lint ``paths`` (files or directories; none: the installed ``repro``
    package), print the text or JSON report, and return the status: 0
    clean, 1 findings, 2 for a path that is not a Python file or
    directory.  ``quiet`` prints the report only when there are findings.
    """
    try:
        files = collect_files(paths or [_PACKAGE_ROOT])
    except FileNotFoundError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    findings = run_lint(files)
    if findings or not quiet:
        render = render_json if as_json else render_text
        print(render(findings, files_scanned=len(files)))
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.lint [paths...] [--json]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & safety static analysis (rules D1-D10; "
                    "see docs/lint.md).",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: the installed "
                             "repro package)")
    parser.add_argument("--json", action="store_true",
                        help="emit the version-2 JSON report instead of text")
    args = parser.parse_args(argv)
    return lint_paths(args.paths, as_json=args.json)
