"""The live kill-and-recover drill: real processes, real SIGKILL.

The in-process chaos suite proves the *logic* recovers; this one proves
the *deployment* does — ``repro.faults.livechaos`` boots genuine
``lepton serve`` subprocesses, SIGKILLs them at armed kill points
mid-upload and mid-stream, restarts over the same data directory, and
demands every acknowledged byte back.  Marked ``live_chaos`` because it
forks servers and sleeps through restarts: run with ``-m live_chaos``
or ``make live-chaos`` (the full 15-point sweep is ``lepton chaos
--live``).

The report tests below are plain unit tests (no subprocesses): the
rendered output must be byte-reproducible for a seed, because the drill
doubles as a regression artifact (benchmarks/results/).
"""

import json
import pathlib

import pytest

from repro.faults.livechaos import REDUCED_SWEEP, run_live_chaos, survivable
from repro.faults.report import ChaosReport

#: The reduced sweep's JSON at seed 0, pinned across commits: only
#: integers, booleans and fixed strings, so any drift is a contract change.
GOLDEN = (pathlib.Path(__file__).with_name("golden")
          / "chaos_live_reduced_seed0.json")


@pytest.mark.live_chaos
def test_reduced_live_sweep_is_survivable(tmp_path):
    """One point per partition — part-append (upload), durable-put
    commit (journal), first streamed piece (read) — through the whole
    kill → restart → resume → verify cycle."""
    report = run_live_chaos(points=REDUCED_SWEEP, seed=0,
                            base_dir=str(tmp_path))
    outcome = report.fields["outcome"]
    assert report.fields["kill_points"] == {
        point: "survived" for point in REDUCED_SWEEP}
    assert outcome["wrong_bytes"] == 0
    assert outcome["lost_acked_bytes"] == 0
    assert outcome["uploads_interrupted"] == 2   # the two non-read points
    assert outcome["uploads_resumed"] == 2
    assert outcome["reads_interrupted"] == 1     # store.stream.first
    assert report.ok and report.verdict == "survivable"
    assert survivable(report.fields)
    assert report.to_json() + "\n" == GOLDEN.read_text()


def test_reduced_sweep_points_cover_each_partition():
    from repro.faults.killpoints import (
        KILL_POINTS,
        PUT_KILL_POINTS,
        READ_KILL_POINTS,
        UPLOAD_KILL_POINTS,
    )

    assert set(REDUCED_SWEEP) <= set(KILL_POINTS)
    assert set(REDUCED_SWEEP) & set(UPLOAD_KILL_POINTS)
    assert set(REDUCED_SWEEP) & set(PUT_KILL_POINTS)
    assert set(REDUCED_SWEEP) & set(READ_KILL_POINTS)


def _report(points=None, **outcome):
    """The pinned sweep's report with ``points`` or outcome fields
    replaced; its verdict recomputed by :func:`survivable`."""
    fields = json.loads(GOLDEN.read_text())
    del fields["survivable"]
    fields["seed"] = 3
    if points is not None:
        fields["kill_points"] = dict(points)
    fields["outcome"].update(outcome)
    return ChaosReport("live chaos report", fields, "survivable",
                       survivable(fields))


def test_report_render_is_byte_reproducible():
    """Two reports built from the same inputs render identically: no
    wall-clock, ports, or paths may leak into the artifact (timings are
    folded into the ``*_bounded`` booleans before rendering)."""
    one = _report()
    two = _report()
    assert one.render() == two.render()
    assert one.to_json() == two.to_json()
    rendered = one.render()
    assert rendered.endswith("\nsurvivable: True\n")
    for banned in ("/tmp", "127.0.0.1", "seconds elapsed"):
        assert banned not in rendered


def test_report_survivable_demands_every_clause():
    healthy = _report()
    assert healthy.ok and survivable(healthy.fields)
    assert not _report(points={"upload.part.post": "not_killed"}).ok
    assert not _report(wrong_bytes=1).ok
    assert not _report(lost_acked_bytes=7).ok
    assert not _report(uploads_resumed=1).ok     # 2 interrupted
    assert not _report(downtime_bounded=False).ok
    assert not _report(retries_bounded=False).ok
    assert not _report(points={}).ok  # an empty sweep proves nothing


def test_report_to_dict_round_trips_the_verdict():
    report = _report()
    payload = report.to_dict()
    assert payload["survivable"] is True
    assert payload["kill_points"] == report.fields["kill_points"]
    assert payload["seed"] == 3
    assert payload["outcome"]["lost_acked_bytes"] == 0
    assert json.loads(report.to_json()) == payload
