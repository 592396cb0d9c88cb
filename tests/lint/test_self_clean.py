"""Tier-1 gate: the shipped tree must be lint-clean (ISSUE: §5.4 analogue).

A build whose own sources violate D1–D5 cannot qualify; this test is the
CI face of the same check `storage.qualification.qualify_build` applies.
"""

from pathlib import Path

import pytest

import repro
from repro.lint import all_rules, check_shipped_tree, default_config, run_lint

pytestmark = pytest.mark.lint

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_shipped_tree_is_clean():
    findings = run_lint([PACKAGE_ROOT])
    assert findings == [], "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in findings
    )


def test_check_shipped_tree_is_clean_and_memoised():
    assert check_shipped_tree() == []
    # Second call must serve the memoised copy (same contents, cheap).
    assert check_shipped_tree() == []


def test_registry_holds_all_ten_rules_in_numeric_order():
    assert [rule.id for rule in all_rules()] == [
        "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "D10",
    ]


def test_dataflow_scopes_cover_serve_and_the_linter_itself():
    """The self-clean gate only means something if the expanded scopes
    actually bind: the serve path gets all four dataflow rules, and the
    linter's own sources are under D4/D5/D9/D10 (so the analysis code is
    held to the invariants it enforces)."""
    config = default_config()
    for rule_id in ("D7", "D8", "D9", "D10"):
        assert config.in_scope(rule_id, "repro.serve.app"), rule_id
    assert config.in_scope("D7", "repro.storage.blockstore")  # callee summaries
    for rule_id in ("D4", "D5", "D9", "D10"):
        assert config.in_scope(rule_id, "repro.lint.engine"), rule_id


def test_the_lock_rules_cover_the_codec_pool():
    """D4 and D9 bind to whole packages, so the codec pool's threads and
    the store's put lock are under them."""
    config = default_config()
    for rule_id in ("D4", "D9"):
        for module in ("repro.storage.workers", "repro.storage.blockstore"):
            assert config.in_scope(rule_id, module), (rule_id, module)
