"""Backend contract suite: blob codec, filesystem atomicity, fault
wrapper, and replicated quorum/read-repair (docs/durability.md)."""

import os

import pytest

from repro.faults.plan import StorageFaultConfig
from repro.obs import MetricsRegistry
from repro.storage.backends import (
    BackendError,
    BackendUnavailable,
    BlobError,
    FaultyBackend,
    FilesystemBackend,
    MemoryBackend,
    ReplicatedBackend,
    blob_ok,
    decode_blob,
    encode_blob,
)

pytestmark = pytest.mark.durability


# -- self-describing blobs -------------------------------------------------


def test_blob_round_trip_stamps_md5():
    blob = encode_blob({"index": 3, "format": "lepton"}, b"payload bytes")
    meta, payload = decode_blob(blob)
    assert payload == b"payload bytes"
    assert meta["index"] == 3
    import hashlib

    assert meta["md5"] == hashlib.md5(b"payload bytes").hexdigest()
    assert blob_ok(blob)


@pytest.mark.parametrize("mangle", [
    lambda b: b[:3],                       # shorter than the magic
    lambda b: b"XXXX" + b[4:],             # wrong magic
    lambda b: b[:10],                      # meta header truncated
])
def test_decode_blob_rejects_structural_damage(mangle):
    blob = encode_blob({"k": 1}, b"x" * 64)
    with pytest.raises(BlobError):
        decode_blob(mangle(blob))
    assert not blob_ok(mangle(blob))


def test_torn_payload_parses_but_fails_the_digest_gate():
    """A tear past the meta header is structurally valid JSON+payload;
    only the stamped md5 can catch it — which is why ``blob_ok`` (not
    ``decode_blob``) is the replicated read's validator."""
    blob = encode_blob({"k": 1}, b"x" * 64)
    torn = blob[: len(blob) // 2]
    meta, payload = decode_blob(torn)  # parses fine
    assert len(payload) < 64
    assert not blob_ok(torn)


def test_blob_ok_catches_payload_rot_that_still_parses():
    blob = encode_blob({"k": 1}, b"a" * 32)
    rotted = blob[:-1] + bytes([blob[-1] ^ 0xFF])  # flip one payload byte
    meta, payload = decode_blob(rotted)  # structurally fine
    assert payload != b"a" * 32 or meta  # parses...
    assert not blob_ok(rotted)           # ...but the digest disagrees


# -- memory + filesystem ---------------------------------------------------


@pytest.fixture(params=["memory", "filesystem"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return FilesystemBackend(str(tmp_path / "blobs"))


def test_backend_contract(backend):
    with pytest.raises(KeyError):
        backend.read("chunk/missing")
    backend.write("chunk/aa11", b"one")
    backend.write("orig/aa11", b"two")
    backend.write("chunk/bb22", b"three")
    assert backend.read("chunk/aa11") == b"one"
    backend.write("chunk/aa11", b"replaced")  # overwrite allowed
    assert backend.read("chunk/aa11") == b"replaced"
    assert backend.keys("chunk/") == ["chunk/aa11", "chunk/bb22"]
    assert backend.keys() == ["chunk/aa11", "chunk/bb22", "orig/aa11"]
    assert backend.exists("orig/aa11")
    backend.delete("orig/aa11")
    backend.delete("orig/aa11")  # idempotent
    assert not backend.exists("orig/aa11")
    assert backend.describe() == {"backend": backend.name}


def test_filesystem_rejects_traversal_keys(tmp_path):
    fs = FilesystemBackend(str(tmp_path / "blobs"))
    for key in ("", "../escape", "chunk/..", "chunk//x", "chunk/a b"):
        with pytest.raises(BackendError):
            fs.write(key, b"x")


def test_filesystem_errors_other_than_a_missing_blob_are_backend_errors(
        tmp_path):
    """A missing blob reads as ``KeyError``; a blob that turned into a
    directory fails every operation with a :class:`BackendError`, never a
    bare ``OSError``."""
    fs = FilesystemBackend(str(tmp_path / "blobs"))
    with pytest.raises(KeyError):
        fs.read("chunk/gone")
    fs.delete("chunk/gone")  # deleting a missing blob is a no-op
    os.makedirs(os.path.join(fs.root, "chunk", "dir"))
    for operation in (lambda: fs.read("chunk/dir"),
                      lambda: fs.write("chunk/dir", b"x"),
                      lambda: fs.delete("chunk/dir")):
        with pytest.raises(BackendError):
            operation()


def test_filesystem_leaves_no_tmp_files_and_hides_them(tmp_path):
    root = tmp_path / "blobs"
    fs = FilesystemBackend(str(root))
    fs.write("chunk/aa", b"x" * 128)
    # Simulate an interrupted write: a stray .tmp sibling on disk.
    stray = root / "chunk" / "bb.tmp"
    stray.write_bytes(b"partial")
    assert fs.keys() == ["chunk/aa"]  # the debris is never a visible blob
    leftovers = [f for _, _, fs_ in os.walk(root) for f in fs_
                 if f.endswith(".tmp")]
    assert leftovers == ["bb.tmp"]  # only the simulated one, none of ours


def _listing_tree(root) -> FilesystemBackend:
    fs = FilesystemBackend(str(root))
    for key in ("chunk/ab12", "chunk/ab34", "chunk/cd56", "file/f1",
                "upload/u1/session", "upload/u1/part-0", "upload/u2/session"):
        fs.write(key, b"x")
    (root / "chunk" / "ab78.tmp").write_bytes(b"partial")
    return fs


def _walk_and_filter(root: str, prefix: str):
    """The listing as a walk of the whole tree filtered by prefix."""
    found = []
    for dirpath, _, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        base = "" if rel == "." else rel.replace(os.sep, "/") + "/"
        found += [base + f for f in filenames
                  if not f.endswith(".tmp") and (base + f).startswith(prefix)]
    return sorted(found)


@pytest.mark.parametrize("prefix", ["", "chunk/", "chunk/ab", "upload/u1/", "nope/"])
def test_filesystem_keys_match_a_whole_tree_walk(tmp_path, prefix):
    fs = _listing_tree(tmp_path / "blobs")
    assert fs.keys(prefix) == _walk_and_filter(fs.root, prefix)


def test_filesystem_keys_walk_only_the_prefix_directory(tmp_path, monkeypatch):
    fs = _listing_tree(tmp_path / "blobs")
    entered = []
    walk = os.walk

    def spy(top, *args, **kwargs):
        for entry in walk(top, *args, **kwargs):
            entered.append(os.path.relpath(entry[0], fs.root))
            yield entry

    monkeypatch.setattr(os, "walk", spy)
    assert fs.keys("upload/") == ["upload/u1/part-0", "upload/u1/session",
                                  "upload/u2/session"]
    assert sorted(entered) == ["upload", os.path.join("upload", "u1"),
                               os.path.join("upload", "u2")]
    for prefix in ("../", "chunk//", "a b/"):
        with pytest.raises(BackendError):
            fs.keys(prefix)


# -- the fault wrapper -----------------------------------------------------


def test_faulty_backend_torn_writes_are_silent_but_detectable():
    registry = MetricsRegistry()
    inner = MemoryBackend()
    cfg = StorageFaultConfig(write_torn_probability=1.0)
    faulty = FaultyBackend(inner, cfg, seed=7, registry=registry)
    blob = encode_blob({"k": 1}, b"z" * 200)
    faulty.write("chunk/aa", blob)  # returns as if it landed whole
    stored = inner.read("chunk/aa")
    assert len(stored) < len(blob)
    assert not blob_ok(stored)  # the checksummed blob catches the tear
    assert faulty.injected == 1


def test_faulty_backend_read_corruption_is_transient():
    inner = MemoryBackend()
    cfg = StorageFaultConfig(read_corrupt_probability=1.0)
    faulty = FaultyBackend(inner, cfg, seed=7, registry=MetricsRegistry())
    blob = encode_blob({"k": 1}, b"z" * 200)
    faulty.write("chunk/aa", blob)
    assert not blob_ok(faulty.read("chunk/aa"))  # corrupted in flight
    assert inner.read("chunk/aa") == blob        # at rest it is pristine


def test_faulty_backend_unavailability_and_determinism():
    cfg = StorageFaultConfig(unavailable_probability=0.5)

    def run():
        inner = MemoryBackend()
        faulty = FaultyBackend(inner, cfg, seed=11,
                               registry=MetricsRegistry())
        outcomes = []
        for i in range(20):
            try:
                faulty.write(f"chunk/k{i}", b"x")
                outcomes.append("ok")
            except BackendUnavailable:
                outcomes.append("down")
        return outcomes

    first, second = run(), run()
    assert first == second  # same seed, same fault sequence
    assert "down" in first and "ok" in first


# -- replication -----------------------------------------------------------


def _good_blob(payload=b"p" * 64):
    return encode_blob({"index": 0, "format": "raw", "osize": len(payload)},
                       payload)


def test_replicated_write_lands_everywhere_and_read_validates():
    members = [MemoryBackend() for _ in range(3)]
    rep = ReplicatedBackend(members, registry=MetricsRegistry())
    blob = _good_blob()
    rep.write("chunk/aa", blob)
    assert all(m.read("chunk/aa") == blob for m in members)
    assert rep.read("chunk/aa") == blob


def test_replicated_read_repair_heals_rotten_and_missing_replicas():
    registry = MetricsRegistry()
    members = [MemoryBackend() for _ in range(3)]
    rep = ReplicatedBackend(members, registry=registry)
    blob = _good_blob()
    rep.write("chunk/aa", blob)
    members[0].write("chunk/aa", blob[:10])  # rot replica 0
    members[1].delete("chunk/aa")            # lose replica 1
    assert rep.read("chunk/aa") == blob      # served from replica 2
    assert members[0].read("chunk/aa") == blob  # both healed in-band
    assert members[1].read("chunk/aa") == blob
    repairs = {tuple(l.items()): c.value
               for l, c in registry.series("replication.read_repairs")}
    assert sum(repairs.values()) == 2


def test_replicated_read_raises_on_missing_vs_invalid():
    members = [MemoryBackend() for _ in range(2)]
    rep = ReplicatedBackend(members, registry=MetricsRegistry())
    with pytest.raises(KeyError):
        rep.read("chunk/nowhere")  # missing everywhere: KeyError
    for m in members:
        m.write("chunk/rot", b"garbage")
    with pytest.raises(BlobError):
        rep.read("chunk/rot")  # present everywhere, valid nowhere


def test_replicated_read_skips_a_replica_that_errors(tmp_path):
    """A replica whose read fails is one that does not answer this time:
    the next replica serves, and the failing one is not repaired in-band."""
    broken = FilesystemBackend(str(tmp_path / "broken"))
    os.makedirs(os.path.join(broken.root, "chunk", "aa"))
    healthy = MemoryBackend()
    healthy.write("chunk/aa", _good_blob())
    rep = ReplicatedBackend([broken, healthy], registry=MetricsRegistry())
    assert rep.read("chunk/aa") == _good_blob()
    assert os.path.isdir(os.path.join(broken.root, "chunk", "aa"))


def test_replicated_write_quorum():
    down = StorageFaultConfig(unavailable_probability=1.0)
    registry = MetricsRegistry()
    members = [
        MemoryBackend(),
        FaultyBackend(MemoryBackend(), down, registry=registry),
        FaultyBackend(MemoryBackend(), down, registry=registry),
    ]
    rep = ReplicatedBackend(members, registry=registry)  # majority = 2
    with pytest.raises(BackendError):
        rep.write("chunk/aa", _good_blob())
    rep2 = ReplicatedBackend(members, write_quorum=1, registry=registry)
    rep2.write("chunk/aa", _good_blob())  # 1/3 accepted, quorum met
    partial = {tuple(l.items()): c.value
               for l, c in registry.series("replication.partial_writes")}
    assert sum(partial.values()) >= 1


def test_replicated_read_quorum_unavailable():
    down = StorageFaultConfig(unavailable_probability=1.0)
    registry = MetricsRegistry()
    members = [FaultyBackend(MemoryBackend(), down, registry=registry)
               for _ in range(3)]
    rep = ReplicatedBackend(members, read_quorum=1, registry=registry)
    with pytest.raises(BackendUnavailable):
        rep.read("chunk/aa")  # nobody responded at all


def test_replicated_backend_rejects_empty_and_bad_quorum():
    with pytest.raises(BackendError):
        ReplicatedBackend([])
    with pytest.raises(BackendError):
        ReplicatedBackend([MemoryBackend()], write_quorum=2)
