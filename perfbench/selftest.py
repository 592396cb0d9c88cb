"""Self-test of the benchmark at tiny scale (about a minute).

    python3 perfbench/selftest.py

Runs every workload for a couple of seconds with a two-photo pool, in both
modes, and checks what the full-size runs rely on: each declared metric is
printed once with its unit, inputs are a pure function of the seed,
``stored_ratio`` and the failure count repeat exactly, and the host probe
is not thrown off by a busy thread.
"""

import contextlib
import dataclasses
import io
import json
import os
import statistics
import sys
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import hostprobe  # noqa: E402
import inputs  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402

SECONDS = "2"


def tiny_run(workload: str, seed: int, trace: int):
    """``run.main`` on a shrunken workload; returns (stdout lines, result)."""
    original = loadgen.WORKLOADS[workload]
    loadgen.WORKLOADS[workload] = dataclasses.replace(
        original, pool=min(original.pool, 2),
        ratio_after=min(original.ratio_after, 2))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(seed),
                             "--seconds", SECONDS, "--trace", str(trace)])
    finally:
        loadgen.WORKLOADS[workload] = original
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    lines = out.getvalue().strip().splitlines()
    return lines, json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_once_with_its_unit(self):
        for trace in (0, 1):
            declared = run.declared_metrics(bool(trace))
            for workload in loadgen.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = tiny_run(workload, 7, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"]
                         for name, m in result["metrics"].items()},
                        declared)
                    for name, unit in declared.items():
                        printed = [line for line in lines[:-1]
                                   if line.split()[:1] == [name]]
                        self.assertEqual(len(printed), 1, name)
                        self.assertEqual(printed[0].split()[2], unit)


class Inputs(unittest.TestCase):
    def test_ops_are_a_function_of_the_seed(self):
        sizes = [3000, 3500, 4000]
        for make in (lambda seed: inputs.get_ops(seed, 3, 40),
                     lambda seed: inputs.mixed_ops(seed, sizes, 1024, 4)):
            self.assertEqual(make(5), make(5))
            self.assertNotEqual(make(5), make(6))

    def test_photos_are_a_function_of_the_seed(self):
        self.assertEqual(inputs.photo(5, 1, 0, 64, 2),
                         inputs.photo(5, 1, 0, 64, 2))
        self.assertNotEqual(inputs.photo(5, 1, 0, 64, 2),
                            inputs.photo(6, 1, 0, 64, 2))

    def test_fresh_photos_differ_in_every_chunk(self):
        first, second = inputs.photos(5, 1, 2, 144, 3)
        for start in range(0, min(len(first), len(second)), 1024):
            self.assertNotEqual(first[start:start + 1024],
                                second[start:start + 1024])


class Repeats(unittest.TestCase):
    def test_stored_ratio_and_failures_repeat_exactly(self):
        for workload in ("put", "mixed"):
            with self.subTest(workload=workload):
                _lines, first = tiny_run(workload, 11, 0)
                _lines, second = tiny_run(workload, 11, 0)
                self.assertEqual(first["metrics"]["stored_ratio"],
                                 second["metrics"]["stored_ratio"])
                self.assertEqual(first["failed"], 0)
                self.assertEqual(second["failed"], 0)


class Probe(unittest.TestCase):
    def test_median_holds_while_a_thread_spins(self):
        # Alternate quiet and busy samples: each vCPU's own speed swings
        # within a second, far more than a spinning thread moves the probe.
        spinning, stop = threading.Event(), threading.Event()

        def spin():
            while not stop.is_set():
                spinning.wait(0.05)
                while spinning.is_set() and not stop.is_set():
                    pass

        spinner = threading.Thread(target=spin)
        spinner.start()
        quiet, busy = [], []
        try:
            for _ in range(15):
                quiet.extend(hostprobe.probe_ms())
                spinning.set()
                busy.extend(hostprobe.probe_ms())
                spinning.clear()
        finally:
            stop.set()
            spinner.join(timeout=10)
        self.assertFalse(spinner.is_alive())
        ratio = statistics.median(busy) / statistics.median(quiet)
        self.assertLess(abs(ratio - 1), 0.25, (quiet, busy))


if __name__ == "__main__":
    unittest.main()
