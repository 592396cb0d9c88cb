"""``make serve-smoke`` as a tier-1 test: every route, called once."""

import pytest

from repro.serve import smoke
from repro.serve.app import ENDPOINTS

pytestmark = pytest.mark.serve


def test_smoke_calls_every_route_and_exits_zero(capsys):
    assert smoke.main() == 0
    out = capsys.readouterr().out
    assert f"serve-smoke ok: {len(ENDPOINTS)} routes;" in out


def test_smoke_fails_when_a_route_goes_uncalled(monkeypatch, capsys):
    monkeypatch.setattr(smoke, "ENDPOINTS", ENDPOINTS + (("GET", "/new"),))
    assert smoke.main() == 1
    assert "missing [('GET', '/new')]" in capsys.readouterr().err
