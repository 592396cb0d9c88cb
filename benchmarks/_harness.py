"""Shared helpers for the figure-regeneration benchmarks.

Every bench prints the same rows/series the corresponding paper figure
plots, and also writes them under ``benchmarks/results/`` so the output
survives pytest's capture.  Set ``REPRO_BENCH_SCALE=2`` (or higher) to run
larger corpora / longer simulations.
"""

import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Global effort multiplier for corpus sizes and sim durations.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def emit(name: str, text: str) -> None:
    """Print a figure's table and persist it to benchmarks/results/."""
    print(f"\n{text}\n", file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def bench_corpus(n: int = None, sizes=(64, 96, 128), seed: int = 1000):
    """The standard bench corpus: clean JPEGs at mixed sizes/qualities."""
    from repro.corpus.builder import jpeg_sweep

    count = n if n is not None else max(4, int(6 * SCALE))
    return jpeg_sweep(count, seed=seed, sizes=sizes, qualities=(75, 85, 92))


def modelled_parallel_seconds(serial_seconds: float, segment_seconds) -> float:
    """A modelled thread-per-segment wall clock, not a measurement.

    The serial time, minus the summed segment times, plus the longest
    segment.  Segments are independent by construction, so the paper's
    codec runs them on one thread each; CPython's GIL serialises the
    pure-Python segment work, so the overlap is modelled rather than
    timed.  Tables label these columns "modelled parallel".
    """
    return serial_seconds - sum(segment_seconds) + max(segment_seconds,
                                                       default=0.0)
