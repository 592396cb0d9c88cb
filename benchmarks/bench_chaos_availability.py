"""Recovery policies under a fault plan: availability and tail latency.

The robustness claim behind `lepton chaos`: with retry + circuit breakers
+ hedged conversions enabled, the simulated fleet sustains strictly higher
conversion availability *and* a strictly lower p99 than the same fleet,
same seed, same fault plan with every policy disabled.

The plan is slowdown-heavy by design.  Network-loss windows reward the
policy-free fleet with survivor bias (its timed-out jobs vanish from the
latency distribution instead of completing late), which is exactly the
accounting artifact §6.1's "never return corrupted data, never time out"
framing warns against — so this figure stresses crashes and 8x slow nodes,
where hedging rescues stragglers instead of merely reviving casualties.

The second scenario is the storage-side sibling (`lepton chaos
--backend`, docs/durability.md): the crash-recovery kill-point sweep plus
the replicated scrub/repair drill, run to a chaos report whose `durable`
verdict the table summarises.
"""

import pytest

from _harness import SCALE, emit
from repro.analysis.tables import format_table
from repro.faults.chaos import run_backend_chaos, run_fleet_chaos
from repro.faults.plan import FaultPlan

HOURS = 0.3 * max(1.0, SCALE)
PLAN = FaultPlan.generate(
    seed=7,
    duration=HOURS * 3600.0,
    crashes=2,
    slowdowns=3,
    slow_factor=8.0,
    slow_duration=500.0,
    network_windows=0,
)


def _run(policies: bool):
    metrics, _breakers = run_fleet_chaos(PLAN, seed=7, hours=HOURS,
                                         policies=policies)
    percentiles = metrics.latency_percentiles(qs=(50, 99))
    return {
        "availability": metrics.availability(),
        "abandoned": metrics.abandoned(),
        "p50": percentiles[50],
        "p99": percentiles[99],
    }


def test_chaos_availability(benchmark):
    def run():
        return _run(policies=True), _run(policies=False)

    with_policies, without = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("chaos_availability", format_table(
        ["fleet", "availability", "abandoned", "p50 (s)", "p99 (s)"],
        [
            ["retry+breakers+hedging", with_policies["availability"],
             with_policies["abandoned"], with_policies["p50"],
             with_policies["p99"]],
            ["no policies", without["availability"],
             without["abandoned"], without["p50"], without["p99"]],
        ],
        title=f"chaos plan seed=7 ({PLAN.summary()['crashes']} crashes, "
              f"{PLAN.summary()['slowdowns']} slowdowns, {HOURS:.1f}h)",
        float_format="{:.4f}",
    ))
    # The headline claim: better on BOTH axes, not a latency trade.
    assert with_policies["availability"] > without["availability"]
    assert with_policies["p99"] < without["p99"]
    assert with_policies["abandoned"] <= without["abandoned"]


DURABILITY_SEED = 3
DURABILITY_READS = int(40 * max(1.0, SCALE))
DURABILITY_PLAN = FaultPlan.generate(seed=DURABILITY_SEED, duration=60.0)


def test_backend_durability(benchmark):
    def run():
        return run_backend_chaos(DURABILITY_PLAN, seed=DURABILITY_SEED,
                                 reads=DURABILITY_READS, replicas=3)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    kill_points = report.fields["kill_points"]
    drill = report.fields["scrub_drill"]
    outcomes = sorted(set(kill_points.values()))
    emit("chaos_durability", format_table(
        ["check", "value"],
        [
            ["kill points recovered",
             f"{len(kill_points)} ({'/'.join(outcomes)})"],
            ["at-rest corruptions", drill["at_rest_corruptions"]],
            ["scrub detected / repaired",
             f"{drill['scrub_detected']} / {drill['scrub_repaired']}"],
            ["in-band read repairs", drill["read_repairs"]],
            ["reads served / degraded / wrong bytes",
             f"{drill['reads_served']} / {drill['reads_degraded']} / "
             f"{drill['wrong_bytes']}"],
            ["unrepairable chunks", drill["scrub_unrepairable"]],
            ["final scrub pass clean", drill["second_pass_clean"]],
            ["replicas converged", drill["replicas_converged"]],
            ["durable", report.ok],
        ],
        title=f"backend durability drill seed={DURABILITY_SEED} "
              f"(3 replicas, {DURABILITY_READS} reads)",
    ))
    # The §5.7 verdict, and proof both repair paths actually ran.
    assert report.ok
    assert set(outcomes) <= {"rolled_back", "redone"}
    assert len(kill_points) >= 8
    assert drill["wrong_bytes"] == 0
    assert drill["scrub_repaired"] > 0     # scrubber healed round one
    assert drill["read_repairs"] > 0       # reads healed round two in-band


def test_live_kill_recover_drill(benchmark):
    """The deployment-level sibling (docs/serve.md, "Request lifecycle"):
    real ``lepton serve`` subprocesses SIGKILLed at one kill point per
    protocol partition, restarted, and made to serve every acked byte.

    The committed artifact is the drill's byte-reproducible report: no
    timings, ports, or paths, so a regression shows up as a one-word
    diff in the affected kill point's outcome.
    """
    from repro.faults.livechaos import REDUCED_SWEEP, run_live_chaos

    def run():
        return run_live_chaos(points=REDUCED_SWEEP, seed=0)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("chaos_live", report.render())
    outcome = report.fields["outcome"]
    assert report.ok
    assert outcome["uploads_resumed"] == outcome["uploads_interrupted"] > 0
    assert outcome["reads_interrupted"] > 0
