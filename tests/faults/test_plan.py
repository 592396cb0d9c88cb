"""FaultPlan generation, serialisation, and determinism."""

from repro.faults.plan import (
    CrashFault,
    FaultPlan,
    NetworkFault,
    SlowFault,
    StorageFaultConfig,
)


class TestGenerate:
    def test_same_seed_same_plan(self):
        assert FaultPlan.generate(seed=4) == FaultPlan.generate(seed=4)

    def test_different_seed_different_plan(self):
        assert FaultPlan.generate(seed=4) != FaultPlan.generate(seed=5)

    def test_counts_match_request(self):
        plan = FaultPlan.generate(seed=1, crashes=3, slowdowns=2,
                                  network_windows=1)
        assert len(plan.crashes) == 3
        assert len(plan.slowdowns) == 2
        assert len(plan.network) == 1
        assert plan.storage is not None  # default profile attached

    def test_events_land_inside_the_window(self):
        plan = FaultPlan.generate(seed=9, duration=1000.0, crashes=5,
                                  slowdowns=5, network_windows=3)
        times = ([c.time for c in plan.crashes]
                 + [s.start for s in plan.slowdowns]
                 + [n.start for n in plan.network])
        assert all(0.0 <= t <= 800.0 for t in times)  # first 80%

    def test_events_sorted_by_time(self):
        plan = FaultPlan.generate(seed=2, crashes=6)
        times = [c.time for c in plan.crashes]
        assert times == sorted(times)


class TestSerialisation:
    def test_json_roundtrip(self):
        plan = FaultPlan.generate(seed=7, crashes=2, slowdowns=1,
                                  network_windows=1)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_roundtrip_without_storage(self):
        plan = FaultPlan(crashes=[CrashFault(time=5.0, server=1)])
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.storage is None

    def test_json_is_deterministic(self):
        a = FaultPlan.generate(seed=3)
        b = FaultPlan.generate(seed=3)
        assert a.to_json() == b.to_json()

    def test_storage_kinds_survive(self):
        plan = FaultPlan(storage=StorageFaultConfig(kinds=("bitflip",)))
        assert FaultPlan.from_json(plan.to_json()).storage.kinds == ("bitflip",)

    def test_empty_storage_takes_the_dataclass_defaults(self):
        assert (FaultPlan.from_dict({"storage": {}}).storage
                == StorageFaultConfig())

    def test_non_default_storage_survives(self):
        storage = StorageFaultConfig(
            read_corrupt_probability=0.5, at_rest_corruptions=7,
            kinds=("torn", "bitflip"), write_torn_probability=0.25,
            unavailable_probability=0.125)
        again = FaultPlan.from_dict(FaultPlan(storage=storage).to_dict())
        assert again.storage == storage  # kinds back as a tuple, not a list

    def test_unknown_storage_key_is_ignored(self):
        plan = FaultPlan.from_dict(
            {"storage": {"at_rest_corruptions": 5, "cosmic_rays": 9}})
        assert plan.storage == StorageFaultConfig(at_rest_corruptions=5)


class TestWindows:
    def test_network_fault_at(self):
        window = NetworkFault(start=10.0, duration=5.0)
        plan = FaultPlan(network=[window])
        assert plan.network_fault_at(12.0) is window
        assert plan.network_fault_at(9.9) is None
        assert plan.network_fault_at(15.0) is None  # half-open interval

    def test_summary(self):
        plan = FaultPlan(
            crashes=[CrashFault(time=1.0, server=0)],
            slowdowns=[SlowFault(start=1.0, duration=2.0, server=0)],
        )
        assert plan.summary() == {
            "crashes": 1, "slowdowns": 1, "network_windows": 0,
            "storage": False,
        }
