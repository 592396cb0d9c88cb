"""Crash-recovery sweep for the resumable upload-session protocol.

Mirrors ``test_crash_recovery.py`` for the upload partition: crash the
create→append→finalize protocol at every
:data:`repro.faults.killpoints.UPLOAD_KILL_POINTS` step, recover a fresh
ledger from the blobs in the same backend, and prove the §5.7 ledger
contract — every *acked* part survives byte-identical, blobs no session
keeps are swept, and the interrupted session resumes from its durable
offset to a finalized file.
"""

import pytest

from repro.faults.killpoints import (
    UPLOAD_KILL_POINTS,
    KillPointError,
    KillPoints,
)
from repro.storage.blockstore import open_durable_store
from repro.storage.quotas import QuotaBoard, QuotaExceeded
from repro.storage.uploads import OffsetConflict, UploadLedger

pytestmark = pytest.mark.durability

PART = 1000
DECLARED = 3 * PART


def _payload(n=DECLARED):
    return bytes(i % 251 for i in range(n))


def _ledger(store, kill=None, quotas=None):
    return UploadLedger(backend=store.backend, quotas=quotas, kill=kill)


def _drive(ledger, store, data):
    """Create → append parts → finalize; returns acked offsets as it goes."""
    session = ledger.create("t1", len(data))
    acked = 0
    for offset in range(0, len(data), PART):
        ledger.append(session.upload_id, offset, data[offset:offset + PART])
        acked = offset + len(data[offset:offset + PART])
    ledger.finalize(session.upload_id, store)
    return session.upload_id, acked


@pytest.mark.parametrize("point", UPLOAD_KILL_POINTS)
def test_crash_at_every_upload_point_recovers(tmp_path, point):
    """One power cut per upload-protocol step.

    Every step follows the session blob's write, so recovery always
    finds the session.  Its durable offset must cover every *acked*
    byte (a crash may leave MORE durable than acked — a part blob whose
    ack never left — but never less), and resuming from the server's
    truth must drive the session to a finalized, byte-identical file
    whose part blobs are gone.
    """
    data = _payload()
    kill = KillPoints()
    store = open_durable_store(str(tmp_path / "store"), chunk_size=512,
                               kill=kill)
    ledger = _ledger(store, kill=kill)
    kill.arm(point)
    upload_id = None
    acked = 0
    try:
        upload_id, acked = _drive(ledger, store, data)
        pytest.fail(f"kill point {point} never fired")
    except KillPointError as crash:
        assert crash.name == point
        # The exception unwound out of create/append mid-protocol; the
        # id is deterministic (sequential), so recovery can find it.
        upload_id = "u00000001"
        acked = ledger._sessions.get(upload_id).received \
            if upload_id in ledger._sessions else 0
    store.journal.close()

    rec_store = open_durable_store(str(tmp_path / "store"), chunk_size=512)
    rec = _ledger(rec_store)
    summary = rec.recover()
    try:
        assert summary["sessions"] == 1
        session = rec.get(upload_id)
        durable = (len(data) if session.state == "completed"
                   else session.received)
        assert durable >= acked  # never lose an acknowledged byte
        # Resume from the ledger's truth to completion.
        if session.state != "completed":
            offset = session.received
            while offset < len(data):
                rec.append(upload_id, offset, data[offset:offset + PART])
                offset += len(data[offset:offset + PART])
            rec.finalize(upload_id, rec_store)
        session = rec.get(upload_id)
        assert session.state == "completed"
        assert rec_store.get_file(session.file_id) == data
        # Finalize pruned the part blobs; only the session blob, which
        # records the outcome, remains.
        assert rec_store.backend.keys(f"upload/{upload_id}/") == [
            f"upload/{upload_id}/session"]
    finally:
        rec_store.journal.close()


def test_recovery_truncates_at_first_bad_part_blob(tmp_path):
    """A part whose blob rotted (or never landed) ends the resumable
    prefix: everything after it is dropped and its blobs deleted."""
    data = _payload()
    store = open_durable_store(str(tmp_path / "store"), chunk_size=512)
    ledger = _ledger(store)
    session = ledger.create("t1", len(data))
    for offset in range(0, len(data), PART):
        ledger.append(session.upload_id, offset, data[offset:offset + PART])
    # Rot the middle part's blob at rest.
    key = f"upload/{session.upload_id}/part-{PART:012d}"
    blob = bytearray(store.backend.read(key))
    blob[-1] ^= 0xFF
    store.backend.write(key, bytes(blob))

    rec = _ledger(store)
    rec.recover()
    try:
        session = rec.get("u00000001")
        assert session.received == PART  # prefix before the damage
        assert rec.dropped_parts == 2    # the bad part and its successor
        assert store.backend.keys(f"upload/u00000001/") == [
            f"upload/u00000001/part-{0:012d}",
            "upload/u00000001/session",
        ]
        # The resume path re-sends from the truncated offset and the
        # upload still completes byte-identically.
        for offset in range(PART, len(data), PART):
            rec.append("u00000001", offset, data[offset:offset + PART])
        rec.finalize("u00000001", store)
        assert store.get_file(rec.get("u00000001").file_id) == data
    finally:
        store.journal.close()


def test_offset_conflict_carries_the_durable_truth(tmp_path):
    store = open_durable_store(str(tmp_path / "store"), chunk_size=512)
    ledger = _ledger(store)
    data = _payload()
    session = ledger.create("t1", len(data))
    ledger.append(session.upload_id, 0, data[:PART])
    with pytest.raises(OffsetConflict) as conflict:
        ledger.append(session.upload_id, 2 * PART, data[2 * PART:])
    assert conflict.value.offset == PART
    # Duplicate of an acked range re-acks without mutating anything.
    ledger.append(session.upload_id, 0, data[:PART])
    assert ledger.get(session.upload_id).received == PART
    store.journal.close()


def test_open_sessions_re_reserve_quota_after_recovery(tmp_path):
    """Recovery force-re-reserves open sessions even when the limit has
    shrunk below them — an admitted upload is never stranded."""
    data = _payload()
    store = open_durable_store(str(tmp_path / "store"), chunk_size=512)
    quotas = QuotaBoard(limit_bytes=10 * DECLARED)
    ledger = _ledger(store, quotas=quotas)
    session = ledger.create("t1", len(data))
    ledger.append(session.upload_id, 0, data[:PART])
    assert quotas.usage("t1").reserved_bytes == DECLARED

    shrunk = QuotaBoard(limit_bytes=PART)  # below the open session
    rec = _ledger(store, quotas=shrunk)
    rec.recover()
    try:
        assert shrunk.usage("t1").reserved_bytes == DECLARED
        # New sessions still answer to the limit.
        with pytest.raises(QuotaExceeded):
            rec.create("t1", DECLARED)
    finally:
        store.journal.close()


def test_blobs_without_a_session_blob_are_swept_and_their_id_skipped(
        tmp_path):
    """Part blobs without a session blob belong to no session recovery
    can rebuild (an open session from a build that kept its sessions in
    a journal leaves exactly these): recovery deletes them, and the next
    session takes the next id rather than reusing theirs."""
    data = _payload()
    store = open_durable_store(str(tmp_path / "store"), chunk_size=512)
    ledger = _ledger(store)
    for _ in range(2):
        session = ledger.create("t1", len(data))
        ledger.append(session.upload_id, 0, data[:PART])
    store.backend.delete("upload/u00000002/session")

    rec = _ledger(store)
    summary = rec.recover()
    try:
        assert summary == {"sessions": 1, "open": 1, "dropped_parts": 0}
        assert store.backend.keys("upload/u00000002/") == []
        with pytest.raises(KeyError):
            rec.get("u00000002")
        assert rec.get("u00000001").received == PART
        assert rec.create("t1", len(data)).upload_id == "u00000003"
    finally:
        store.journal.close()

