"""`lepton chaos`: byte-reproducible availability/durability reports."""

import json

import pytest

from repro.cli import main
from repro.faults.plan import FaultPlan

ARGS = ["chaos", "--seed", "3", "--hours", "0.05", "--reads", "20"]


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.chaos
class TestChaosCommand:
    def test_same_seed_byte_identical_report(self, capsys):
        code_a, out_a = _run(capsys, ARGS)
        code_b, out_b = _run(capsys, ARGS)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert out_a.endswith("\n")
        assert "availability" in out_a

    def test_json_mode_parses_and_repeats(self, capsys):
        code_a, out_a = _run(capsys, ARGS + ["--json"])
        code_b, out_b = _run(capsys, ARGS + ["--json"])
        assert code_a == 0
        assert out_a == out_b
        report = json.loads(out_a)
        assert report["seed"] == 3
        assert report["storage"]["wrong_bytes"] == 0
        assert report["no_wrong_bytes"] is True

    def test_plan_file_round_trips(self, capsys, tmp_path):
        plan = FaultPlan.generate(seed=11, duration=0.05 * 3600.0,
                                  crashes=1, slowdowns=1, network_windows=0)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        argv = ARGS + ["--plan", str(path), "--json"]
        code, out = _run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["plan"]["crashes"] == 1
        assert report["plan"]["slowdowns"] == 1

    def test_no_policies_flag_degrades_availability(self, capsys):
        code_on, out_on = _run(capsys, ARGS + ["--json"])
        code_off, out_off = _run(capsys, ARGS + ["--no-policies", "--json"])
        assert code_on == 0 and code_off == 0
        on = json.loads(out_on)
        off = json.loads(out_off)
        assert (float(on["fleet"]["availability"])
                >= float(off["fleet"]["availability"]))
