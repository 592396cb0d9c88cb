"""Write-ahead journal suite: framing, torn tails, checkpoint atomicity
(docs/durability.md)."""

import os

import pytest

from repro.storage.journal import Journal, JournalError, _frame, _parse_line

pytestmark = pytest.mark.durability


def test_frame_round_trip_and_determinism():
    record = {"type": "intent", "put": 1, "keys": ["a", "b"]}
    frame = _frame(record)
    assert frame == _frame(dict(reversed(list(record.items()))))  # sort_keys
    assert _parse_line(frame) == record


@pytest.mark.parametrize("mangle", [
    lambda f: f[:-1],                       # no newline: torn tail
    lambda f: f[: len(f) // 2],             # torn mid-body
    lambda f: b"zzzzzzzz" + f[8:],          # CRC mismatch
    lambda f: f[:9] + b"not json\n",        # unparseable body
    lambda f: b"\xff\xfe" + f,              # undecodable bytes
    lambda f: b"short\n",                   # too short to frame
])
def test_parse_line_rejects_damage(mangle):
    frame = _frame({"type": "commit", "put": 2})
    assert _parse_line(mangle(frame)) is None


def test_append_replay_round_trip(tmp_path):
    path = str(tmp_path / "j.wal")
    with Journal(path) as journal:
        journal.append({"type": "intent", "put": 1})
        journal.append({"type": "commit", "put": 1})
        assert journal.replay() == [
            {"type": "intent", "put": 1},
            {"type": "commit", "put": 1},
        ]


def test_replay_truncates_torn_tail(tmp_path):
    path = str(tmp_path / "j.wal")
    journal = Journal(path)
    journal.append({"type": "intent", "put": 1})
    journal.append({"type": "commit", "put": 1})
    journal.close()
    # The power cut: half of a third record reaches the disk.
    torn = _frame({"type": "intent", "put": 2})
    with open(path, "ab") as handle:
        handle.write(torn[: len(torn) // 2])
    journal = Journal(path)
    assert [r["put"] for r in journal.replay()] == [1, 1]
    # The torn bytes are gone: a fresh append is parseable again.
    journal.append({"type": "intent", "put": 3})
    assert [r["put"] for r in journal.replay()] == [1, 1, 3]
    journal.close()


def test_damage_mid_file_stops_replay_there(tmp_path):
    path = str(tmp_path / "j.wal")
    journal = Journal(path)
    journal.append({"put": 1})
    journal.close()
    with open(path, "ab") as handle:
        handle.write(b"garbage line\n")
        handle.write(_frame({"put": 2}))  # after damage: never trusted
    journal = Journal(path)
    assert journal.replay() == [{"put": 1}]
    assert os.path.getsize(path) == len(_frame({"put": 1}))
    journal.close()


def test_checkpoint_empties_and_keeps(tmp_path):
    """A checkpoint empties the journal and keeps its append handle."""
    path = str(tmp_path / "j.wal")
    with Journal(path) as journal:
        journal.append({"put": 1})
        journal.checkpoint()
        assert journal.replay() == []
        assert os.path.getsize(path) == 0
        journal.append({"put": 2})  # the handle survived the swap
        journal.append({"put": 3})
        assert [r["put"] for r in journal.replay()] == [2, 3]


def test_closed_journal_refuses_appends(tmp_path):
    journal = Journal(str(tmp_path / "j.wal"))
    journal.close()
    with pytest.raises(JournalError):
        journal.append({"put": 1})


def test_open_failure_raises_journal_error(tmp_path):
    target = tmp_path / "dir-not-file"
    target.mkdir()
    with pytest.raises(JournalError):
        Journal(str(target))
