"""The two-stage segment coder: model a band, then code it (repro.core.session).

Every encode records each MCU row band's symbol stream first and codes
it after, in this process or in a codec worker's coder on a second CPU.
Contexts never read bin states, so neither choice may change a container
byte: these tests pin the coding stage that runs in a coder against the
one that runs in process over a corpus sweep, and the recording coder's
out-of-range reject against the coder's own.
"""

import dataclasses
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
from repro.core.session import CodingStage
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
    """Two workers whatever the host: one models while its coder codes,
    and one is reserved for the coder's CPU."""
    pool = CodecPool(2)
    try:
        yield pool
    finally:
        pool.close()


def _encode(pool, data, chunk_size, config):
    """Encode on one worker with its coding stage in that worker's coder,
    the other worker reserved, whatever the count of windows."""
    header = {"chunk_size": chunk_size,
              "config": dataclasses.asdict(config), "windows": False}
    return pool._run("encode", header, data, None, None, True)


def _idle(pool, seconds=30.0):
    limit = time.monotonic() + seconds
    while pool.idle_workers() < pool.size:
        assert time.monotonic() < limit, "the pool never came up"
        time.sleep(0.005)


def _coded_by_coders() -> float:
    return get_registry().counter("workers.coder.segments").value


def _segments() -> int:
    return get_registry().histogram(
        "span.lepton.encode.code_segment.wall_seconds").count


@pytest.mark.parametrize("case", sorted(CASES))
def test_local_and_remote_coding_stages_give_identical_bytes(pool, case):
    data, chunk_size, config = CASES[case]
    segments = _segments()
    local = compress_chunked(data, chunk_size, config)
    segments = _segments() - segments
    _idle(pool)
    before = _coded_by_coders()
    remote = _encode(pool, data, chunk_size, config)
    assert _coded_by_coders() == before + segments  # a coder coded each
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
    remote = _encode(pool, drifting_dc_jpeg, WHOLE, LeptonConfig())
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


def test_the_coder_answers_a_failed_band_lost_and_codes_the_next_one():
    """A band the coder cannot code stops its segment: the segment's last
    band is answered with ``lost`` (its encode codes the segment itself).
    A band that carries ``open`` starts a fresh segment, discarding one
    its encode abandoned, and the next segment codes to the in-process
    bytes."""
    import io
    from array import array

    from repro.storage import workers

    bands, coded = [], []

    class Tap(CodingStage):
        def band(self, words, last):
            bands.append((array("q", words).tobytes(), last))
            coded.append(super().band(words, last))
            return coded[-1]

    data, chunk_size, config = CASES["420"]
    compress_chunked(data, chunk_size, config, coding=Tap)
    lasts = [last for _words, last in bands]  # one segment, several bands
    assert len(lasts) > 1 and lasts == [False] * (len(lasts) - 1) + [True]
    opened = {"model": dataclasses.asdict(config.model), "account": False}
    frames = io.BytesIO()
    bad = (15 << 16) | 1  # a value word with an exponent cap past 14
    workers._write_frame(frames, {"band": False, "open": opened},
                         array("q", [bad]).tobytes())
    workers._write_frame(frames, {"band": True}, b"")
    # A segment abandoned after its first band (its deadline passed).
    workers._write_frame(frames, {"band": False, "open": opened},
                         bands[0][0])
    for i, (words, last) in enumerate(bands):
        header = {"band": last, **({"open": opened} if i == 0 else {})}
        workers._write_frame(frames, header, words)
    frames.seek(0)
    segments = io.BytesIO()
    workers._code_bands(frames, segments)  # returns at end of file
    segments.seek(0)
    lost, _body = workers._read_frame(segments)
    assert "lost" in lost and lost["lost"].startswith("IndexError")
    reply, body = workers._read_frame(segments)
    assert body == coded[-1].data
    assert reply["segment"]["bins"] == coded[-1].bins
    assert workers._read_frame(segments) is None
