"""The two-stage segment coder: model a band, then code it (repro.core.session).

Every encode records each MCU row band's symbol stream first and codes
it after, in this process or on a second codec worker.  Contexts never
read bin states, so neither choice may change a container byte: these
tests pin the coding stage that runs on a worker against the one that
runs in process over a corpus sweep, and the recording coder's
out-of-range reject against the coder's own.
"""

import time

import pytest

from repro.core.bool_coder import BoolEncoder, RecordingCoder
from repro.core.chunks import compress_chunked
from repro.core.errors import ExitCode, ValueOutOfRange
from repro.core.lepton import FORMAT_DEFLATE, FORMAT_LEPTON, LeptonConfig
from repro.core.model import Model, ModelConfig
from repro.corpus.builder import corpus_jpeg
from repro.corpus.images import synthetic_photo
from repro.jpeg.writer import encode_baseline_jpeg
from repro.obs import get_registry
from repro.storage.workers import CodecPool

WHOLE = 1 << 22


def _cmyk() -> bytes:
    import numpy as np

    rgb = synthetic_photo(48, 64, seed=11)
    k = np.clip(255 - rgb.mean(axis=2, keepdims=True) * 0.5, 0, 255)
    return encode_baseline_jpeg(
        np.concatenate([rgb, k.astype(np.uint8)], axis=2), quality=85)


#: ``(data, chunk_size, config)`` per case.
CASES = {
    "420": (corpus_jpeg(seed=1, height=96, width=112), WHOLE, LeptonConfig()),
    "444": (corpus_jpeg(seed=2, height=64, width=80, subsampling="4:4:4"),
            WHOLE, LeptonConfig()),
    "grayscale": (corpus_jpeg(seed=3, height=80, width=64, grayscale=True),
                  WHOLE, LeptonConfig()),
    "restart_interval": (corpus_jpeg(seed=4, height=64, width=96,
                                     restart_interval=3),
                         WHOLE, LeptonConfig()),
    "cmyk": (_cmyk(), WHOLE, LeptonConfig(allow_cmyk=True)),
    "threads4": (corpus_jpeg(seed=5, height=128, width=96), WHOLE,
                 LeptonConfig(threads=4)),
    "1k_windows": (corpus_jpeg(seed=6, height=96, width=96), 1024,
                   LeptonConfig()),
    "edge_avg": (corpus_jpeg(seed=7), WHOLE,
                 LeptonConfig(model=ModelConfig(edge_mode="avg"))),
    "dc_packjpg": (corpus_jpeg(seed=8), WHOLE,
                   LeptonConfig(model=ModelConfig(dc_mode="packjpg"))),
    "dc_median8": (corpus_jpeg(seed=9), WHOLE,
                   LeptonConfig(model=ModelConfig(dc_mode="median8"))),
}


@pytest.fixture(scope="module")
def pool():
    """Two workers whatever the host: one models, one codes."""
    pool = CodecPool(2)
    try:
        yield pool
    finally:
        pool.close()


def _idle(pool, seconds=30.0):
    limit = time.monotonic() + seconds
    while pool.idle_workers() < pool.size:
        assert time.monotonic() < limit, "the pool never came up"
        time.sleep(0.005)


def _code_jobs() -> float:
    return get_registry().counter("workers.jobs", kind="code").value


@pytest.mark.parametrize("case", sorted(CASES))
def test_local_and_remote_coding_stages_give_identical_bytes(pool, case):
    data, chunk_size, config = CASES[case]
    local = compress_chunked(data, chunk_size, config)
    _idle(pool)
    before = _code_jobs()
    remote = pool.encode(data, chunk_size, config, None, None, True)
    assert _code_jobs() == before + 1  # a second worker coded it
    assert [c.format for c in local] == [FORMAT_LEPTON] * len(local)
    assert ([(c.index, c.format, c.payload, c.original_range)
             for c in remote]
            == [(c.index, c.format, c.payload, c.original_range)
                for c in local])


def test_the_drifting_dc_fixture_is_rejected_alike(pool, drifting_dc_jpeg):
    """The recording coder raises the coder's §6.2 reject at the same
    call, so the file is still "AC values out of range", stored as
    Deflate, with its coding stage in process or on a worker."""
    codes = get_registry().counter("lepton.compress.exit_codes",
                                   code=ExitCode.AC_OUT_OF_RANGE.value)
    before = codes.value
    local = compress_chunked(drifting_dc_jpeg, WHOLE)
    _idle(pool)
    remote = pool.encode(drifting_dc_jpeg, WHOLE, LeptonConfig(), None,
                         None, True)
    assert codes.value == before + 2
    assert [c.format for c in local] == [c.format for c in remote] == [
        FORMAT_DEFLATE]
    assert [c.payload for c in local] == [c.payload for c in remote]


@pytest.mark.parametrize("value,max_exp", [(1 << 11, 11), (-(1 << 12), 12),
                                           (40000, 14)])
def test_the_recorder_rejects_what_the_coder_rejects(value, max_exp):
    model = Model(ModelConfig())
    raised = []
    for coder in (BoolEncoder(), RecordingCoder()):
        with pytest.raises(ValueOutOfRange) as exc:
            coder.code_value(model.bins, 1 << 8, value, max_exp)
        raised.append(str(exc.value))
    assert raised[0] == raised[1]
    recorder = RecordingCoder()
    assert recorder.code_value({}, 1 << 8, (1 << max_exp) - 1, max_exp) \
        == (1 << max_exp) - 1
    assert len(recorder.take()) == 1 and recorder.take() == []


def test_a_code_job_that_fails_answers_lost_and_reads_to_its_end():
    """A band the helper cannot code stops its coding: the segment's last
    band is answered with ``lost`` (its encode codes the segment itself),
    and every frame up to ``end`` is read, so none is taken for the next
    job's header."""
    import io
    from array import array

    from repro.storage import workers

    jobs, replies = io.BytesIO(), io.BytesIO()
    bad = (15 << 16) | 1  # a value word with an exponent cap past 14
    workers._write_frame(jobs, {"band": False, "open": {
        "model": {"edge_mode": "lakhani", "dc_mode": "gradient",
                  "max_value_exponent": 14}, "account": False}},
        array("q", [bad]).tobytes())
    workers._write_frame(jobs, {"band": True}, b"")
    workers._write_frame(jobs, {"end": True})
    workers._write_frame(jobs, {"job": "decode"})  # the next job's header
    jobs.seek(0)
    with pytest.raises(IndexError):
        workers._code({}, b"", None, jobs, replies)
    replies.seek(0)
    answer, _body = workers._read_frame(replies)
    assert "lost" in answer
    assert workers._read_frame(jobs)[0] == {"job": "decode"}
