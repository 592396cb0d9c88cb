"""The ``lepton`` command-line tool."""

import pytest

from repro.cli import EXIT_STATUS, main
from repro.core.errors import ExitCode
from repro.core.lepton import FORMAT_DEFLATE, FORMAT_LEPTON, LeptonConfig, compress
from repro.corpus.builder import corpus_jpeg


@pytest.fixture()
def jpeg_path(tmp_path):
    path = tmp_path / "photo.jpg"
    path.write_bytes(corpus_jpeg(seed=50, height=48, width=48))
    return path


def test_compress_decompress_cycle(tmp_path, jpeg_path):
    lep = tmp_path / "photo.lep"
    out = tmp_path / "photo.out.jpg"
    assert main(["compress", str(jpeg_path), str(lep), "--quiet"]) == 0
    assert lep.stat().st_size < jpeg_path.stat().st_size
    assert main(["decompress", str(lep), str(out), "--quiet"]) == 0
    assert out.read_bytes() == jpeg_path.read_bytes()


@pytest.mark.parametrize("case", ["jpeg", "threads4", "deflate"])
def test_compress_writes_the_library_payload(tmp_path, jpeg_path, case):
    """`lepton compress` writes exactly the bytes `compress` returns."""
    source, flags, config = jpeg_path, [], LeptonConfig()
    if case == "threads4":
        flags, config = ["--threads", "4"], LeptonConfig(threads=4)
    elif case == "deflate":
        source = tmp_path / "notes.txt"
        source.write_bytes(b"not a jpeg " * 50)
    out = tmp_path / "out.lep"
    main(["compress", str(source), str(out), "--quiet", *flags])
    expected = compress(source.read_bytes(), config)
    assert expected.format == (FORMAT_DEFLATE if case == "deflate"
                               else FORMAT_LEPTON)
    assert out.read_bytes() == expected.payload


def test_verify_command(jpeg_path):
    assert main(["verify", str(jpeg_path), "--quiet"]) == 0


def test_thread_override(tmp_path, jpeg_path):
    lep = tmp_path / "x.lep"
    assert main(["compress", str(jpeg_path), str(lep), "--threads", "4",
                 "--quiet"]) == 0


def test_reject_returns_nonzero_without_fallback(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a jpeg")
    status = main(["compress", str(bad), "--no-fallback", "--quiet"])
    assert status == EXIT_STATUS[ExitCode.NOT_AN_IMAGE]


def test_reject_with_fallback_reports_code(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a jpeg")
    out = tmp_path / "bad.z"
    status = main(["compress", str(bad), str(out), "--quiet"])
    assert status == EXIT_STATUS[ExitCode.NOT_AN_IMAGE]
    assert out.exists()


def test_stdout_output(tmp_path, jpeg_path, capsysbinary):
    assert main(["compress", str(jpeg_path), "-", "--quiet"]) == 0
    payload = capsysbinary.readouterr().out
    assert payload[:2] == b"\xCF\x84"


def test_decompress_streams_to_stdout(tmp_path, jpeg_path, capsysbinary):
    lep = tmp_path / "photo.lep"
    assert main(["compress", str(jpeg_path), str(lep), "--quiet"]) == 0
    assert main(["decompress", str(lep), "-", "--quiet"]) == 0
    assert capsysbinary.readouterr().out == jpeg_path.read_bytes()


def test_stdin_to_stdout_pipe(monkeypatch, jpeg_path, capsysbinary):
    """`lepton compress - -` and `lepton decompress - -`: the full pipe."""
    import io
    import sys
    from types import SimpleNamespace

    original = jpeg_path.read_bytes()
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(original)))
    assert main(["compress", "-", "-", "--quiet"]) == 0
    payload = capsysbinary.readouterr().out
    assert payload[:2] == b"\xCF\x84"

    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(payload)))
    assert main(["decompress", "-", "-", "--quiet"]) == 0
    assert capsysbinary.readouterr().out == original


def test_decompress_reports_byte_counts(tmp_path, jpeg_path, capsys):
    lep = tmp_path / "photo.lep"
    out = tmp_path / "photo.out.jpg"
    assert main(["compress", str(jpeg_path), str(lep), "--quiet"]) == 0
    assert main(["decompress", str(lep), str(out)]) == 0
    err = capsys.readouterr().err
    original = jpeg_path.read_bytes()
    assert f"decoded {lep.stat().st_size} -> {len(original)} bytes" in err


def test_reject_without_fallback_creates_no_output_file(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a jpeg")
    out = tmp_path / "bad.lep"
    status = main(["compress", str(bad), str(out), "--no-fallback", "--quiet"])
    assert status == EXIT_STATUS[ExitCode.NOT_AN_IMAGE]
    # The sink opens lazily: a reject that yields nothing leaves no file.
    assert not out.exists()


def test_qualify_clean_directory(tmp_path):
    for seed in range(3):
        data = corpus_jpeg(seed=300 + seed, height=40, width=40)
        (tmp_path / f"photo_{seed}.jpg").write_bytes(data)
    (tmp_path / "notes.txt").write_bytes(b"not a jpeg")  # skipped, not failed
    assert main(["qualify", str(tmp_path), "--quiet"]) == 0


def test_qualify_reports_counts(tmp_path, capsys):
    (tmp_path / "a.jpg").write_bytes(corpus_jpeg(seed=310, height=32, width=32))
    assert main(["qualify", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "QUALIFIED" in err


def test_allow_cmyk_flag(tmp_path):
    import numpy as np

    from repro.corpus.images import synthetic_photo
    from repro.jpeg.writer import encode_baseline_jpeg

    rgb = synthetic_photo(32, 32, seed=12)
    cmyk = np.concatenate(
        [rgb, np.full((32, 32, 1), 60, dtype=np.uint8)], axis=2
    )
    path = tmp_path / "print.jpg"
    path.write_bytes(encode_baseline_jpeg(cmyk, quality=85))
    out = tmp_path / "print.lep"
    # Production default: rejected (nonzero status without fallback)...
    assert main(["compress", str(path), "--no-fallback", "--quiet"]) != 0
    # ...extended path: compresses.
    assert main(["compress", str(path), str(out), "--allow-cmyk",
                 "--quiet"]) == 0


def test_exit_statuses_are_frozen():
    """Regression: exit statuses are part of the operational contract (the
    §6.2 tabulation and every wrapper script keys on them), so they are
    pinned numbers — not whatever ``enumerate(ExitCode)`` happens to yield.
    """
    assert EXIT_STATUS == {
        ExitCode.SUCCESS: 0,
        ExitCode.PROGRESSIVE: 1,
        ExitCode.UNSUPPORTED_JPEG: 2,
        ExitCode.NOT_AN_IMAGE: 3,
        ExitCode.CMYK: 4,
        ExitCode.DECODE_MEMORY_EXCEEDED: 5,
        ExitCode.ENCODE_MEMORY_EXCEEDED: 6,
        ExitCode.SERVER_SHUTDOWN: 7,
        ExitCode.IMPOSSIBLE: 8,
        ExitCode.ABORT_SIGNAL: 9,
        ExitCode.TIMEOUT: 10,
        ExitCode.CHROMA_SUBSAMPLE_BIG: 11,
        ExitCode.AC_OUT_OF_RANGE: 12,
        ExitCode.ROUNDTRIP_FAILED: 13,
        ExitCode.OOM_KILL: 14,
        ExitCode.OPERATOR_INTERRUPT: 15,
    }
    assert set(EXIT_STATUS) == set(ExitCode)


def test_stats_subcommand_prints_registry(jpeg_path, capsys):
    assert main(["stats", str(jpeg_path)]) == 0
    out = capsys.readouterr().out
    assert "lepton.compress.attempts counter 1" in out
    assert "lepton.compress.exit_codes{code=Success} counter 1" in out
    assert "lepton.compress.seconds histogram count=1" in out
    assert "span.lepton.encode.parse.wall_seconds histogram" in out
    assert "lepton.decompress.count{format=lepton} counter 1" in out


def test_stats_flag_on_any_command(tmp_path, jpeg_path, capsys):
    lep = tmp_path / "photo.lep"
    assert main(["compress", str(jpeg_path), str(lep), "--stats",
                 "--quiet"]) == 0
    err = capsys.readouterr().err
    assert "lepton.compress.attempts counter 1" in err


def test_trace_flag_exports_jsonl(tmp_path, jpeg_path):
    import json

    lep = tmp_path / "photo.lep"
    trace = tmp_path / "trace.jsonl"
    assert main(["compress", str(jpeg_path), str(lep), "--trace", str(trace),
                 "--quiet"]) == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    names = {r["name"] for r in records}
    assert "lepton.compress" in names
    assert "lepton.encode.code_segment" in names
    compress_span = next(r for r in records if r["name"] == "lepton.compress")
    assert compress_span["depth"] == 0 and "wall_ms" in compress_span
