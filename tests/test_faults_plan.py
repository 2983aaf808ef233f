"""Fault plans: validation, serialization, and ambient arming."""

import pytest

from repro import obs
from repro.errors import FaultError
from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.obs import RunConfig
from repro.sim.engine import Simulator


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="gamma_ray")

    def test_rate_bounds(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="ring_drop", rate=1.5)
        with pytest.raises(FaultError):
            FaultSpec(kind="ring_drop", rate=-0.1)

    def test_negative_retries_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="disk_read_error", max_retries=-1)

    def test_nonpositive_delays_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="ring_drop", timeout_ms=0.0)
        with pytest.raises(FaultError):
            FaultSpec(kind="ring_corrupt", nak_delay_ms=-1.0)

    def test_backoff_below_one_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="ring_drop", backoff=0.5)

    def test_kills_only_for_ip_kill(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="ring_drop", kills=((1, 10.0),))
        spec = FaultSpec(kind="ip_kill", kills=((1, 10.0),))
        assert spec.armed

    def test_armed_semantics(self):
        assert not FaultSpec(kind="ring_drop", rate=0.0).armed
        assert FaultSpec(kind="ring_drop", rate=0.01).armed
        assert FaultSpec(kind="ip_kill", kills=((2, 5.0),)).armed

    def test_kills_normalized_from_json_lists(self):
        spec = FaultSpec(kind="ip_kill", kills=[[1, 10], [2, 20]])
        assert spec.kills == ((1, 10.0), (2, 20.0))

    def test_every_kind_constructs(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind=kind).kind == kind


class TestFaultPlan:
    def test_duplicate_kind_site_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(
                seed=1,
                specs=(
                    FaultSpec(kind="ring_drop", rate=0.1),
                    FaultSpec(kind="ring_drop", rate=0.2),
                ),
            )

    def test_same_kind_different_sites_allowed(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(kind="ring_drop", site="outer-ring", rate=0.1),
                FaultSpec(kind="ring_drop", site="inner-ring", rate=0.2),
            ),
        )
        assert len(plan.specs) == 2

    def test_exact_site_wins_over_wildcard(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(kind="ring_drop", site="*", rate=0.1),
                FaultSpec(kind="ring_drop", site="outer-ring", rate=0.5),
            ),
        )
        assert plan.spec("ring_drop", "outer-ring").rate == 0.5
        assert plan.spec("ring_drop", "inner-ring").rate == 0.1
        assert plan.spec("cache_poison", "anywhere") is None

    def test_armed_requires_a_striking_spec(self):
        assert not FaultPlan(seed=1).armed
        assert not FaultPlan(seed=1, specs=(FaultSpec(kind="ring_drop", rate=0.0),)).armed
        assert FaultPlan(seed=1, specs=(FaultSpec(kind="ring_drop", rate=0.1),)).armed

    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=42,
            specs=(
                FaultSpec(kind="ring_drop", rate=0.05, max_retries=3),
                FaultSpec(kind="ip_kill", kills=((1, 10.0), (2, 20.0))),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestAmbientArming:
    def test_injecting_sets_and_restores(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind="ring_drop", rate=0.1),))
        assert obs.current().faults is None
        with obs.configured(faults=plan) as armed:
            assert armed.faults is plan
            assert obs.current().faults is plan
        assert obs.current().faults is None

    def test_nested_contexts_restore_outer(self):
        outer = FaultPlan(seed=1, specs=(FaultSpec(kind="ring_drop", rate=0.1),))
        inner = FaultPlan(seed=2, specs=(FaultSpec(kind="cache_poison", rate=0.2),))
        with obs.configured(faults=outer):
            with obs.configured(faults=inner):
                assert obs.current().faults is inner
            assert obs.current().faults is outer

    def test_simulator_binds_armed_plan(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind="ring_drop", rate=0.1),))
        with obs.configured(faults=plan):
            sim = Simulator()
        assert sim.faults is not None
        assert sim.faults.plan is plan

    def test_simulator_skips_unarmed_plan(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind="ring_drop", rate=0.0),))
        with obs.configured(faults=plan):
            sim = Simulator()
        assert sim.faults is None

    def test_explicit_plan_overrides_ambient(self):
        ambient = FaultPlan(seed=1, specs=(FaultSpec(kind="ring_drop", rate=0.1),))
        explicit = FaultPlan(seed=2, specs=(FaultSpec(kind="cache_poison", rate=0.3),))
        with obs.configured(faults=ambient):
            sim = Simulator(RunConfig(faults=explicit))
        assert sim.faults.plan is explicit


class TestInjectorDraws:
    def test_decisions_depend_only_on_seed_kind_site(self):
        plan = FaultPlan(seed=9, specs=(FaultSpec(kind="ring_drop", rate=0.5),))
        draws = []
        for _ in range(2):
            sim = Simulator(RunConfig(faults=plan))
            draws.append(
                [sim.faults.decide("ring_drop", "outer-ring", 0.5) for _ in range(64)]
            )
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_zero_rate_never_strikes_and_consumes_nothing(self):
        plan = FaultPlan(seed=9, specs=(FaultSpec(kind="ring_drop", rate=0.5),))
        sim = Simulator(RunConfig(faults=plan))
        before = [sim.faults.decide("ring_drop", "a", 0.5) for _ in range(8)]
        sim2 = Simulator(RunConfig(faults=plan))
        assert not any(sim2.faults.decide("ring_drop", "a", 0.0) for _ in range(100))
        after = [sim2.faults.decide("ring_drop", "a", 0.5) for _ in range(8)]
        assert before == after

    def test_counters_and_snapshot(self):
        plan = FaultPlan(seed=9, specs=(FaultSpec(kind="ring_drop", rate=0.5),))
        sim = Simulator(RunConfig(faults=plan))
        sim.faults.count("ring.drop", "outer-ring")
        sim.faults.count("ring.drop", "outer-ring")
        sim.faults.count("ring.nak", "inner-ring")
        assert sim.faults.total("ring.drop") == 2
        assert sim.faults.snapshot() == {
            "ring.drop[outer-ring]": 2,
            "ring.nak[inner-ring]": 1,
        }
