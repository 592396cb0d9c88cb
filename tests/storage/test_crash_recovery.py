"""Crash-recovery sweep: kill the durable put protocol at EVERY registered
point and prove recovery (docs/durability.md, §5.7).

The put sweep is parametrized over
:data:`repro.faults.killpoints.PUT_KILL_POINTS` itself, so registering a
new protocol step automatically extends the sweep (the upload-session
partition has its own sweep in ``test_upload_recovery.py``) — and
:func:`test_workload_visits_every_kill_point` fails if ANY registered
point, in any partition, is never reached, so a dead name cannot hide
either.
"""

import pytest

from repro.corpus.builder import corpus_jpeg
from repro.faults.killpoints import (
    KILL_POINTS,
    PUT_KILL_POINTS,
    KillPointError,
    KillPoints,
)
from repro.storage.blockstore import file_blob_key, open_durable_store
from repro.storage.quotas import QuotaBoard
from repro.storage.uploads import UploadLedger

pytestmark = pytest.mark.durability

#: Points at or past the durable commit record: the put is owed to the
#: client, so recovery must redo it.  Everything earlier must vanish.
COMMITTED = frozenset({
    "journal.commit.post",
    "backend.file_record",
    "store.index.post",
    "journal.checkpoint.pre",
})

CHUNK = 1024  # the drill corpus JPEGs are ~1.1 KB: every put is multi-chunk


def _jpeg(seed, height=64, width=64):
    return corpus_jpeg(seed=seed, height=height, width=width)


def _open(root, kill=None, quotas=None):
    return open_durable_store(str(root), chunk_size=CHUNK, kill=kill,
                              quotas=quotas)


def test_kill_point_registry_is_big_enough():
    """The acceptance floor: >= 8 enumerated crash points, no duplicates."""
    assert len(KILL_POINTS) >= 8
    assert len(set(KILL_POINTS)) == len(KILL_POINTS)
    assert COMMITTED < set(KILL_POINTS)


def test_workload_visits_every_kill_point(tmp_path):
    """A traced (unarmed) workload must pass every registered point: a
    point nobody visits is a point nobody crash-tests.  One put covers
    the put partition, one streamed read covers the read partition, and
    one create→append→finalize upload covers the session partition."""
    kill = KillPoints()
    store = _open(tmp_path, kill=kill)
    data = _jpeg(21)
    store.put_file("a.jpg", data)
    assert b"".join(store.stream_range("a.jpg", 0, len(data))) == data
    uploads = UploadLedger(backend=store.backend, kill=kill)
    session = uploads.create("t1", len(data))
    uploads.append(session.upload_id, 0, data)
    uploads.finalize(session.upload_id, store)
    assert kill.seen == set(KILL_POINTS)
    assert kill.fired == ()
    store.journal.close()


def test_unknown_kill_point_is_rejected():
    kill = KillPoints()
    with pytest.raises(ValueError):
        kill.arm("journal.fsync.imaginary")
    with pytest.raises(ValueError):
        kill.reach("journal.fsync.imaginary")


@pytest.mark.parametrize("point", PUT_KILL_POINTS)
def test_crash_at_every_point_recovers(tmp_path, point):
    """The §5.7 proof, one power cut per protocol step.

    File ``a`` was acknowledged before the crash: it must read back
    byte-identical afterwards, always.  File ``b`` was mid-put: at a
    pre-commit point it must be invisible (no record, no orphan blobs);
    at a committed point it must be redone and fully readable.
    """
    kill = KillPoints()
    store = _open(tmp_path, kill=kill)
    data_a, data_b = _jpeg(21), _jpeg(22, height=96)
    store.put_file("a.jpg", data_a)
    keys_a = set(store.files["a.jpg"].chunk_keys)
    kill.arm(point)
    with pytest.raises(KillPointError) as crash:
        store.put_file("b.jpg", data_b)
    assert crash.value.name == point
    store.journal.close()  # drop the dead process's handle

    recovered = _open(tmp_path)
    try:
        assert recovered.get_file("a.jpg") == data_a  # never lose an ack
        if point in COMMITTED:
            assert recovered.get_file("b.jpg") == data_b  # owed: redone
        else:
            assert "b.jpg" not in recovered.files
            assert not recovered.backend.exists(file_blob_key("b.jpg"))
            orphans = {k.split("/", 1)[1]
                       for k in recovered.backend.keys("chunk/")} - keys_a
            assert orphans == set()  # rollback left no stray blobs
    finally:
        recovered.journal.close()


def test_recovery_is_idempotent(tmp_path):
    kill = KillPoints()
    store = _open(tmp_path, kill=kill)
    store.put_file("a.jpg", _jpeg(21))
    kill.arm("journal.commit.post")
    with pytest.raises(KillPointError):
        store.put_file("b.jpg", _jpeg(22))
    store.journal.close()
    once = _open(tmp_path)
    files_once = sorted(once.files)
    once.journal.close()
    twice = _open(tmp_path)  # recovering an already-recovered store
    try:
        assert sorted(twice.files) == files_once == ["a.jpg", "b.jpg"]
        assert twice.get_file("b.jpg") == _jpeg(22)
    finally:
        twice.journal.close()


def test_torn_commit_rolls_back_through_real_torn_bytes(tmp_path):
    """The ``.torn`` points stage genuinely half-written journal records;
    recovery must truncate the tail, not choke on it."""
    kill = KillPoints()
    store = _open(tmp_path, kill=kill)
    store.put_file("a.jpg", _jpeg(21))
    kill.arm("journal.commit.torn")
    with pytest.raises(KillPointError):
        store.put_file("b.jpg", _jpeg(22))
    store.journal.close()
    recovered = _open(tmp_path)
    try:
        assert sorted(recovered.files) == ["a.jpg"]
        assert recovered.rolled_back_puts == 1
        # The journal is whole again: the next put commits normally.
        recovered.put_file("c.jpg", _jpeg(23))
        assert recovered.get_file("c.jpg") == _jpeg(23)
    finally:
        recovered.journal.close()


def test_crash_during_replacing_reput_keeps_old_version(tmp_path):
    """The reason the file blob is written *after* the commit record: a
    crash mid-re-put must not lose the previously acknowledged bytes."""
    kill = KillPoints()
    store = _open(tmp_path, kill=kill)
    old = _jpeg(21)
    store.put_file("a.jpg", old)
    new = _jpeg(31, height=96)
    kill.arm("journal.commit.torn")  # crash before the new commit lands
    with pytest.raises(KillPointError):
        store.put_file("a.jpg", new)
    store.journal.close()
    recovered = _open(tmp_path)
    try:
        assert recovered.get_file("a.jpg") == old
    finally:
        recovered.journal.close()


def test_dedup_shared_chunks_survive_rollback(tmp_path):
    """Rolling back an orphan intent must not delete chunk blobs a
    committed file still references (content-addressed dedup)."""
    kill = KillPoints()
    store = _open(tmp_path, kill=kill)
    data = _jpeg(21)
    store.put_file("a.jpg", data)
    kill.arm("journal.commit.torn")
    with pytest.raises(KillPointError):
        store.put_file("same-bytes-new-name.jpg", data + b"")
    store.journal.close()
    recovered = _open(tmp_path)
    try:
        assert recovered.get_file("a.jpg") == data
    finally:
        recovered.journal.close()


# -- the quota ledger across crashes (satellite S3) ------------------------


def test_reservation_released_exactly_once_on_crash(tmp_path):
    kill = KillPoints()
    quotas = QuotaBoard(limit_bytes=100_000)
    store = _open(tmp_path, kill=kill, quotas=quotas)
    data_a = _jpeg(21)
    store.put_file("a.jpg", data_a, tenant="t1")
    kill.arm("backend.chunk.rest")
    with pytest.raises(KillPointError):
        store.put_file("b.jpg", _jpeg(22), tenant="t1")
    usage = quotas.usage("t1")
    assert usage.reserved_bytes == 0      # released exactly once
    assert usage.logical_bytes == len(data_a)  # the crash charged nothing
    assert usage.files == 1
    store.journal.close()


@pytest.mark.parametrize("point", ["backend.chunk.rest", "journal.commit.post"])
def test_ledger_rebuilt_after_recovery_balances(tmp_path, point):
    """After a restart the ledger is rebuilt from committed file records
    only: rolled-back puts charge nothing, redone puts charge once."""
    kill = KillPoints()
    store = _open(tmp_path, kill=kill, quotas=QuotaBoard())
    data_a, data_b = _jpeg(21), _jpeg(22, height=96)
    store.put_file("a.jpg", data_a, tenant="t1")
    kill.arm(point)
    with pytest.raises(KillPointError):
        store.put_file("b.jpg", data_b, tenant="t1")
    store.journal.close()

    quotas = QuotaBoard()
    recovered = _open(tmp_path, quotas=quotas)
    try:
        usage = quotas.usage("t1")
        committed = point in COMMITTED
        expected = len(data_a) + (len(data_b) if committed else 0)
        assert usage.logical_bytes == expected
        assert usage.reserved_bytes == 0
        assert usage.files == (2 if committed else 1)
        # Re-putting after recovery never double-charges: either it is a
        # byte-identical duplicate (redone put) or a first-time charge
        # (rolled-back put).
        recovered.put_file("b.jpg", data_b, tenant="t1")
        usage = quotas.usage("t1")
        assert usage.logical_bytes == len(data_a) + len(data_b)
        assert usage.reserved_bytes == 0
        assert usage.files == 2
        assert recovered.get_file("b.jpg") == data_b
    finally:
        recovered.journal.close()


def test_recovery_counters_flow_to_registry(tmp_path):
    from repro.obs import get_registry

    kill = KillPoints()
    store = _open(tmp_path, kill=kill)
    store.put_file("a.jpg", _jpeg(21))
    kill.arm("journal.intent.post")
    with pytest.raises(KillPointError):
        store.put_file("b.jpg", _jpeg(22))
    store.journal.close()
    recovered = _open(tmp_path)
    try:
        assert recovered.rolled_back_puts == 1
        assert recovered.recovered_files == 1
        registry = get_registry()
        rolled = sum(c.value for _l, c in
                     registry.series("storage.recovery.rolled_back"))
        files = sum(c.value for _l, c in
                    registry.series("storage.recovery.files"))
        assert rolled >= 1 and files >= 1
    finally:
        recovered.journal.close()
