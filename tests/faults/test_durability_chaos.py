"""`lepton chaos --backend`: the byte-reproducible durability report."""

import copy
import json
import pathlib

import pytest

from repro.cli import main
from repro.faults.chaos import durable, run_backend_chaos
from repro.faults.killpoints import PUT_KILL_POINTS
from repro.faults.plan import FaultPlan

pytestmark = [pytest.mark.chaos, pytest.mark.durability]

ARGS = ["chaos", "--backend", "--seed", "3", "--reads", "40"]

#: ``lepton chaos --backend --seed 3 --reads 40 --json``, pinned across
#: commits: the JSON is the machine contract of the durability drill.
GOLDEN = (pathlib.Path(__file__).with_name("golden")
          / "chaos_backend_seed3.json")


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestBackendChaosCommand:
    def test_same_seed_byte_identical_report(self, capsys):
        code_a, out_a = _run(capsys, ARGS)
        code_b, out_b = _run(capsys, ARGS)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "\nkill_points\n-----------\n" in out_a
        assert "replicas_converged:  True" in out_a

    def test_json_mode_parses_and_verdicts(self, capsys):
        code_a, out_a = _run(capsys, ARGS + ["--json"])
        code_b, out_b = _run(capsys, ARGS + ["--json"])
        assert code_a == 0
        assert out_a == out_b
        assert out_a + "\n" == GOLDEN.read_text()
        report = json.loads(out_a)
        assert report["durable"] is True
        assert report["scrub_drill"]["wrong_bytes"] == 0
        assert report["scrub_drill"]["scrub_unrepairable"] == 0
        assert report["scrub_drill"]["second_pass_clean"] is True
        # The sweep covers the whole durable-put partition: adding a
        # put-protocol step without sweeping it fails here.  (The
        # upload-session and read partitions are swept by
        # tests/storage/test_upload_recovery.py and the live harness.)
        assert set(report["kill_points"]) == set(PUT_KILL_POINTS)
        assert all(v in ("rolled_back", "redone")
                   for v in report["kill_points"].values())


def test_run_backend_chaos_drill_is_durable_and_exercises_both_paths():
    plan = FaultPlan.generate(seed=3, duration=60.0)
    report = run_backend_chaos(plan, seed=3, reads=40, replicas=3)
    drill = report.fields["scrub_drill"]
    assert report.ok and report.verdict == "durable"
    assert durable(report.fields)
    assert report.fields["kill_points"]
    assert all(outcome in ("rolled_back", "redone")
               for outcome in report.fields["kill_points"].values())
    assert drill["at_rest_corruptions"] > 0
    # Round one healed by the scrubber, round two by in-band read repair.
    assert drill["scrub_repaired"] > 0
    assert drill["read_repairs"] > 0
    assert drill["reads_served"] == drill["reads_attempted"] == 40
    assert drill["wrong_bytes"] == 0
    assert drill["replicas_converged"]


def test_durability_report_verdict_gates():
    good = json.loads(GOLDEN.read_text())
    assert durable(good)
    for section, key, value in (
        ("kill_points", "journal.intent.post", "FAILED: lost a.jpg"),
        ("kill_points", None, {}),
        ("scrub_drill", "wrong_bytes", 1),
        ("scrub_drill", "scrub_unrepairable", 1),
        ("scrub_drill", "second_pass_clean", False),
        ("scrub_drill", "replicas_converged", False),
    ):
        bad = copy.deepcopy(good)
        if key is None:
            bad[section] = value
        else:
            bad[section][key] = value
        assert not durable(bad), (section, key, value)
