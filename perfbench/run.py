"""Host-normalised ``lepton serve`` benchmark.

    python3 perfbench/run.py --workload get --seed 1 --seconds 30 --trace 0

Runs one workload (``get``, ``put`` or ``mixed``; see README.md) against an
in-process server on a durable store and prints, as its last stdout line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Everything it writes stays under ``.perfbench/`` in the
checkout.
"""

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool):
    """``{name: unit}`` of the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


async def _measure(workload, seed, seconds, work_root, tracer):
    import loadgen

    if tracer is not None:
        import layers

        asyncio.get_running_loop().set_default_executor(
            layers.TracingExecutor(tracer))
    return await loadgen.execute(workload, seed, seconds, work_root, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    import loadgen

    if args.workload not in loadgen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    workload = loadgen.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
    os.makedirs(OUT, exist_ok=True)
    work_root = tempfile.mkdtemp(dir=OUT, prefix="work-")
    try:
        run = asyncio.run(_measure(workload, args.seed, args.seconds,
                                   work_root, tracer))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if tracer is not None:
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        figures, raw = layers.layer_figures(run, tracer), {}
    else:
        figures, raw = run.end_to_end()

    samples = run.all_samples
    failed = sum(s.failed for s in samples)
    wrong = sum(s.wrong for s in samples)
    load = run.load.samples
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(load)} timed ops, {len(samples) - len(load)} set-up ops, "
          f"host probe {run.probe_ms:.3f} ms")
    for name, unit in declared.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:30s} {figures[name]:14.6g} {unit}{extra}")
    print(f"  {'fail_ratio':30s} {failed / len(samples):14.6g} ratio"
          f"  ({failed} failed, {wrong} with a wrong byte)")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
