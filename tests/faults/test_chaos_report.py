"""The one chaos report: every drill's fields through one renderer.

Each ``lepton chaos`` mode builds its own JSON document and verdict, and
``ChaosReport.render`` lays out all of them the same way; a leaf that
reached the JSON but not the text would be a fact the human report hides.
"""

import json
import pathlib
import re

import pytest

from repro.faults.chaos import durable, run_chaos
from repro.faults.livechaos import survivable
from repro.faults.report import ChaosReport

GOLDEN = pathlib.Path(__file__).with_name("golden")


def _pinned(name, title, verdict, judge):
    """A report rebuilt from a committed drill document."""
    fields = json.loads((GOLDEN / name).read_text())
    del fields[verdict]
    return ChaosReport(title, fields, verdict, judge(fields))


@pytest.fixture(scope="module", params=["plain", "backend", "live"])
def report(request):
    if request.param == "plain":
        return run_chaos(seed=3, hours=0.05, reads=20)
    if request.param == "backend":
        return _pinned("chaos_backend_seed3.json", "durability report",
                       "durable", durable)
    return _pinned("chaos_live_reduced_seed0.json", "live chaos report",
                   "survivable", survivable)


def _leaves(doc):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value)
        else:
            yield key, value


def test_every_leaf_is_rendered_on_one_line(report):
    rendered = report.render()
    leaves = list(_leaves(report.to_dict()))
    assert leaves
    for key, value in leaves:
        line = rf"^.*\b{re.escape(key)}\b.*\b{re.escape(str(value))}\b.*$"
        assert re.search(line, rendered, re.M), (key, value)


def test_title_is_underlined_and_verdict_is_last(report):
    lines = report.render().splitlines()
    assert lines[:2] == [report.title, "=" * len(report.title)]
    assert lines[-1] == f"{report.verdict}: {report.ok}"
    assert report.ok is True
    assert report.to_dict()[report.verdict] is report.ok
