"""The timings the codec sessions record, as the fig. 1/7/8 benches read them.

A decode's serial time is ``DecodeSession.wall_seconds`` and an encode's is
``EncodeStats.encode_seconds`` (stages plus segments).  The modelled
parallel time replaces the summed segment times with the longest segment.
"""

import pytest

from repro.core.lepton import LeptonConfig, compress, decompress
from repro.core.session import DecodeSession, EncodeSession
from repro.corpus.builder import corpus_jpeg


@pytest.fixture(scope="module")
def photo():
    return corpus_jpeg(seed=90, height=128, width=128, quality=88)


def _modelled(serial, segment_seconds):
    return serial - sum(segment_seconds) + max(segment_seconds, default=0.0)


def _timed_decode(payload):
    """``(data, modelled, serial)`` of one sequential decode session."""
    session = DecodeSession()
    data = b"".join([*session.write(payload), *session.finish()])
    serial = session.wall_seconds
    return data, _modelled(serial, session.segment_seconds), serial


def _timed_encode(data, threads):
    """``(payload, modelled, serial)`` of one encode session."""
    session = EncodeSession(threads=threads)
    session.write(data)
    payload = b"".join(session.finish())
    serial = session.stats.encode_seconds
    assert serial == pytest.approx(
        sum(session.stage_seconds.values()) + sum(session.segment_seconds))
    return payload, _modelled(serial, session.segment_seconds), serial


class TestDecodeTimed:
    def test_output_matches_regular_decode(self, photo):
        payload = compress(photo, LeptonConfig(threads=4)).payload
        data, effective, serial = _timed_decode(payload)
        assert data == photo
        assert data == decompress(payload)

    def test_effective_at_most_serial(self, photo):
        payload = compress(photo, LeptonConfig(threads=4)).payload
        _, effective, serial = _timed_decode(payload)
        assert 0 < effective <= serial + 1e-9

    def test_single_segment_effective_equals_serial(self, photo):
        payload = compress(photo, LeptonConfig(threads=1)).payload
        _, effective, serial = _timed_decode(payload)
        assert effective == pytest.approx(serial, rel=0.05)

    def test_more_segments_lower_effective(self, photo):
        p1 = compress(photo, LeptonConfig(threads=1)).payload
        p4 = compress(photo, LeptonConfig(threads=4)).payload
        _, eff1, _ = _timed_decode(p1)
        _, eff4, _ = _timed_decode(p4)
        assert eff4 < eff1


class TestEncodeTimed:
    def test_payload_decodes(self, photo):
        payload, effective, serial = _timed_encode(photo, threads=4)
        assert decompress(payload) == photo
        assert 0 < effective <= serial + 1e-9

    def test_payload_identical_to_regular_encode(self, photo):
        timed, _, _ = _timed_encode(photo, threads=2)
        regular = compress(photo, LeptonConfig(threads=2)).payload
        assert timed == regular

    def test_serial_head_bounds_effective(self, photo):
        """The encoder's serial Huffman-decode head means effective encode
        time cannot scale linearly with threads (the Figure-8 plateau)."""
        eff1 = min(_timed_encode(photo, threads=1)[1] for _ in range(2))
        eff8 = min(_timed_encode(photo, threads=8)[1] for _ in range(2))
        speedup = eff1 / eff8
        assert speedup < 7.0  # strictly sublinear: the serial head remains
