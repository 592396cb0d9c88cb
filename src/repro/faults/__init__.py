"""Deterministic fault injection (repro.faults).

Plans are data (:mod:`repro.faults.plan`), injectors apply them
(:mod:`repro.faults.injector`), and the chaos drills turn a
``(seed, plan)`` pair into one byte-reproducible
:class:`~repro.faults.report.ChaosReport`: a JSON document plus the one
verdict the exit code follows — ``no_wrong_bytes`` and ``durable`` from
:mod:`repro.faults.chaos` (imported directly, never from here, because
it imports the fleet which imports this package), ``survivable`` from
:mod:`repro.faults.livechaos`.
"""

from repro.faults.injector import (
    FleetFaultInjector,
    ReadFaultInjector,
    corrupt_backend_at_rest,
)
from repro.faults.killpoints import (
    KILL_POINTS,
    PUT_KILL_POINTS,
    READ_KILL_POINTS,
    UPLOAD_KILL_POINTS,
    KillPointError,
    KillPoints,
    ProcessKillPoints,
    kill_points_from_env,
)
from repro.faults.plan import (
    CrashFault,
    FaultPlan,
    NetworkFault,
    SlowFault,
    StorageFaultConfig,
)
from repro.faults.report import ChaosReport

__all__ = [
    "ChaosReport",
    "CrashFault",
    "FaultPlan",
    "FleetFaultInjector",
    "KILL_POINTS",
    "KillPointError",
    "KillPoints",
    "NetworkFault",
    "PUT_KILL_POINTS",
    "ProcessKillPoints",
    "READ_KILL_POINTS",
    "ReadFaultInjector",
    "SlowFault",
    "StorageFaultConfig",
    "UPLOAD_KILL_POINTS",
    "corrupt_backend_at_rest",
    "kill_points_from_env",
]
