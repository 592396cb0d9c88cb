"""Figure 1: compression savings vs decompression speed, 4 JPEG-aware tools.

Paper series (p25/p50/p75 over 200k JPEGs): Lepton ≈23% savings at
~100+ Mbit/s decode; PackJPG matches the savings at ~an order of magnitude
lower speed (single-threaded, global, non-streaming); MozJPEG-arithmetic
≈12% savings; JPEGrescan ≈8–9%.

Substitutions (documented in DESIGN.md/EXPERIMENTS.md): absolute Mbit/s are
~1000× below the paper (pure Python), and Lepton's decode speed is
*modelled*, not measured: a ``DecodeSession`` runs its segments one after
another and ``modelled_parallel_seconds`` replaces their sum with the
longest one, because the GIL hides real thread speedup.  The tables mark
that row ``lepton*``.  The JPEG-aware tools' *relative* savings, and
Lepton-vs-PackJPG speed ordering, are the reproduced shape.
"""

import time

import pytest

from _harness import bench_corpus, emit, modelled_parallel_seconds
from repro.analysis.stats import mbits_per_second, percentile
from repro.analysis.tables import format_table
from repro.baselines.registry import get_codec
from repro.core.lepton import LeptonConfig, compress
from repro.core.session import DecodeSession

TOOLS = ["lepton", "packjpg", "mozjpeg", "jpegrescan"]
LEPTON_THREADS = 2
MODELLED_NOTE = ("lepton* decode speed is modelled parallel: serial time "
                 "- summed segment times + longest segment")


def _label(tool):
    return "lepton*" if tool == "lepton" else tool


def _compress(tool, data):
    if tool == "lepton":
        result = compress(data, LeptonConfig(threads=LEPTON_THREADS))
        assert result.ok
        return result.payload
    return get_codec(tool).compress(data)


def _decode_seconds(tool, payload, original):
    if tool == "lepton":
        session = DecodeSession()
        data = b"".join([*session.write(payload), *session.finish()])
        assert data == original
        return modelled_parallel_seconds(session.wall_seconds,
                                         session.segment_seconds)
    codec = get_codec(tool)
    start = time.perf_counter()
    data = codec.decompress(payload)
    elapsed = time.perf_counter() - start
    assert data == original
    return elapsed


def _measure(tool, corpus):
    savings, speeds = [], []
    for item in corpus:
        payload = _compress(tool, item.data)
        elapsed = _decode_seconds(tool, payload, item.data)
        savings.append(100.0 * (1.0 - len(payload) / len(item.data)))
        speeds.append(mbits_per_second(len(item.data), elapsed))
    return savings, speeds


@pytest.mark.parametrize("tool", TOOLS)
def test_fig1_savings_vs_decode_speed(benchmark, tool):
    corpus = bench_corpus(sizes=(128, 192, 256))
    payloads = [(item, _compress(tool, item.data)) for item in corpus]
    benchmark.pedantic(
        lambda: [_decode_seconds(tool, p, item.data) for item, p in payloads],
        rounds=1, iterations=1,
    )
    savings, speeds = _measure(tool, corpus)
    table = format_table(
        ["tool", "sav_p25(%)", "sav_p50(%)", "sav_p75(%)",
         "dec_p25(Mbps)", "dec_p50(Mbps)", "dec_p75(Mbps)"],
        [[_label(tool),
          percentile(savings, 25), percentile(savings, 50), percentile(savings, 75),
          percentile(speeds, 25), percentile(speeds, 50), percentile(speeds, 75)]],
        title=f"Figure 1 — {tool} (paper: lepton≈23%/fastest JPEG-aware, "
              "packjpg≈23%/9x slower, mozjpeg≈12%, jpegrescan≈9%)"
              + (f"\n{MODELLED_NOTE}" if tool == "lepton" else ""),
    )
    emit(f"fig1_{tool}", table)
    benchmark.extra_info["savings_p50"] = percentile(savings, 50)
    benchmark.extra_info["decode_mbps_p50"] = percentile(speeds, 50)


def test_fig1_shape_holds(benchmark):
    """Lepton matches PackJPG's savings and decodes faster; the small-bin
    and Huffman-only tools trail on savings."""
    corpus = bench_corpus(n=4, sizes=(192, 256))
    results = {}
    def run_all():
        for tool in TOOLS:
            savings, speeds = _measure(tool, corpus)
            results[tool] = (percentile(savings, 50), percentile(speeds, 50))
    benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[_label(t), s, v] for t, (s, v) in results.items()]
    emit("fig1_summary", format_table(
        ["tool", "savings_p50(%)", "decode_p50(Mbps)"], rows,
        title=f"Figure 1 — all tools\n{MODELLED_NOTE}",
    ))
    assert results["lepton"][0] >= results["mozjpeg"][0] + 2
    assert results["lepton"][0] >= results["jpegrescan"][0] + 3
    assert abs(results["lepton"][0] - results["packjpg"][0]) < 6
    assert results["lepton"][1] > results["packjpg"][1]
