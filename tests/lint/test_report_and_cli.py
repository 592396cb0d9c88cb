"""The reporters, the `python -m repro.lint` entry point, and `lepton lint`."""

import json
from pathlib import Path

import pytest

import repro.cli as cli
from repro.lint import (
    SCHEMA_VERSION,
    all_rules,
    main as lint_main,
    render_json,
    render_text,
    run_lint,
    to_json_dict,
)

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent / "fixtures"


def test_json_schema_fields():
    findings = run_lint([FIXTURES / "d1_trigger.py"])
    doc = to_json_dict(findings, files_scanned=1)
    assert doc["version"] == SCHEMA_VERSION == 2
    assert doc["tool"] == "repro.lint"
    assert doc["dataflow"] is True
    assert doc["files_scanned"] == 1
    assert doc["rules"] == [r.id for r in all_rules()]
    # Rule ids sort numerically (D2 before D10), not lexicographically.
    assert doc["rules"].index("D2") < doc["rules"].index("D10")
    assert doc["clean"] is False
    assert doc["counts"]["D1"] == len(doc["findings"]) > 0
    for entry in doc["findings"]:
        assert set(entry) == {"rule", "file", "line", "col", "message"}


def test_json_schema_clean():
    doc = to_json_dict([], files_scanned=3)
    assert doc["clean"] is True
    assert doc["counts"] == {}
    assert doc["findings"] == []


def test_text_report():
    findings = run_lint([FIXTURES / "d1_trigger.py"])
    text = render_text(findings, files_scanned=1)
    assert "D1" in text and "d1_trigger.py" in text
    assert render_text([], files_scanned=5) == "clean: 0 findings in 5 files"


def test_module_main_exit_codes(tmp_path, capsys):
    assert lint_main([str(FIXTURES / "d1_trigger.py")]) == 1
    assert lint_main([str(FIXTURES / "d1_clean.py")]) == 0
    assert lint_main([str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_module_main_json_output(capsys):
    status = lint_main(["--json", str(FIXTURES / "d2_trigger.py")])
    doc = json.loads(capsys.readouterr().out)
    assert status == 1
    assert doc["version"] == 2 and doc["counts"]["D2"] >= 2


def test_lepton_lint_subcommand(tmp_path, capsys):
    assert cli.main(["lint", str(FIXTURES / "d4_trigger.py")]) == 1
    assert "D4" in capsys.readouterr().out
    assert cli.main(["lint", str(FIXTURES / "d4_clean.py")]) == 0
    assert cli.main(["lint", str(tmp_path / "missing")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_both_entry_points_print_the_same_report(flags, capsys):
    """`lepton lint` and `python -m repro.lint` are one run: over the
    fixture corpus they print the same bytes and return the same status."""
    module_status = lint_main([*flags, str(FIXTURES)])
    module_out = capsys.readouterr().out
    cli_status = cli.main(["lint", *flags, str(FIXTURES)])
    assert capsys.readouterr().out == module_out
    assert cli_status == module_status == 1


def test_lepton_lint_json(capsys):
    assert cli.main(["lint", "--json", str(FIXTURES / "d5_trigger.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "repro.lint" and doc["counts"]["D5"] >= 2


def test_reports_are_byte_identical_across_runs():
    """Two runs over the same tree render the same bytes — the ISSUE 7
    determinism contract for both reporters."""
    files = len(list(FIXTURES.glob("*.py")))
    first = run_lint([FIXTURES])
    second = run_lint([FIXTURES])
    assert first, "fixture corpus should produce findings"
    assert render_json(first, files) == render_json(second, files)
    assert render_text(first, files) == render_text(second, files)


def test_reporters_sort_defensively():
    """Reporters order findings themselves, whatever order they arrive in."""
    findings = run_lint([FIXTURES])
    shuffled = list(reversed(findings))
    files = len(list(FIXTURES.glob("*.py")))
    assert render_json(shuffled, files) == render_json(findings, files)
    assert render_text(shuffled, files) == render_text(findings, files)
