"""Plan-driven processor and controller failures (requirement 5).

``ip_kill`` fail-stops IPs mid-run (the watchdog path proven by
test_ring_fault_tolerance.py); ``ic_failure`` fail-stops a query's
controller and makes the MC tear the query down and re-activate it on a
fresh controller.  Every recovery must reproduce the oracle exactly.
"""

import pytest

from repro.errors import FaultError
from repro.faults import FaultPlan, FaultSpec
from repro.obs import configured
from repro.relational.catalog import Catalog
from repro.relational.predicate import attr
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.query import execute
from repro.query.builder import scan
from repro.ring.machine import RingMachine

SCHEMA = Schema.build(("k", DataType.INT), ("g", DataType.INT))


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(
        Relation.from_rows("big", SCHEMA, [(i, i % 8) for i in range(400)], page_bytes=128)
    )
    cat.register(
        Relation.from_rows("small", SCHEMA, [(i, i % 8) for i in range(200)], page_bytes=128)
    )
    return cat


def join_tree(name="fo"):
    return (
        scan("big")
        .restrict(attr("k") < 300)
        .equijoin(scan("small").restrict(attr("k") < 150), "g", "g")
        .tree(name)
    )


def build_machine(catalog, plan, processors=6, fault_tolerant=True, **kwargs):
    defaults = dict(
        controllers=8, page_bytes=128, cache_bytes=32 * 128,
        fault_tolerant=fault_tolerant, watchdog_interval_ms=50.0,
    )
    defaults.update(kwargs)
    if plan is None:
        return RingMachine(catalog, processors=processors, **defaults)
    with configured(faults=plan):
        return RingMachine(catalog, processors=processors, **defaults)


class TestPlannedIpKills:
    def test_explicit_kill_schedule(self, catalog):
        oracle = execute(join_tree(), catalog)
        plan = FaultPlan(
            seed=3,
            specs=(FaultSpec(kind="ip_kill", kills=((2, 30.0), (4, 300.0))),),
        )
        machine = build_machine(catalog, plan)
        tree = join_tree()
        machine.submit(tree)
        report = machine.run()
        assert report.results[tree.name].same_rows_as(oracle)
        assert sorted(machine.failed_ips) == [2, 4]
        assert machine.sim.faults.total("ip.kill") == 2

    def test_plan_kills_match_direct_schedule(self, catalog):
        # A FaultPlan kill schedule is the same machine-level mechanism as
        # schedule_ip_failure — identical clocks, identical rows.
        oracle = execute(join_tree(), catalog)

        plan = FaultPlan(seed=3, specs=(FaultSpec(kind="ip_kill", kills=((2, 30.0),)),))
        planned = build_machine(catalog, plan)
        tree_a = join_tree()
        planned.submit(tree_a)
        report_a = planned.run()

        direct = build_machine(catalog, None)
        direct.schedule_ip_failure(2, 30.0)
        tree_b = join_tree()
        direct.submit(tree_b)
        report_b = direct.run()

        assert report_a.results[tree_a.name].same_rows_as(oracle)
        assert report_a.elapsed_ms == report_b.elapsed_ms
        assert report_a.events_processed == report_b.events_processed

    def test_rate_draws_leave_a_survivor(self, catalog):
        oracle = execute(join_tree(), catalog)
        plan = FaultPlan(
            seed=3,
            specs=(FaultSpec(kind="ip_kill", rate=1.0, window_ms=400.0),),
        )
        machine = build_machine(catalog, plan, processors=4)
        tree = join_tree()
        machine.submit(tree)
        report = machine.run()
        assert report.results[tree.name].same_rows_as(oracle)
        assert len(machine.failed_ips) == 3  # rate 1.0, but one IP must survive

    def test_requires_fault_tolerant_mode(self, catalog):
        plan = FaultPlan(seed=3, specs=(FaultSpec(kind="ip_kill", kills=((1, 10.0),)),))
        machine = build_machine(catalog, plan, fault_tolerant=False)
        machine.submit(join_tree())
        with pytest.raises(FaultError, match="fault_tolerant"):
            machine.run()


class TestIcFailover:
    def _plan(self, rate=1.0, at_ms=40.0, max_failovers=3, seed=3):
        return FaultPlan(
            seed=seed,
            specs=(
                FaultSpec(
                    kind="ic_failure", rate=rate, at_ms=at_ms, max_failovers=max_failovers
                ),
            ),
        )

    def test_failover_reruns_query_oracle_exact(self, catalog):
        oracle = execute(join_tree(), catalog)
        machine = build_machine(catalog, self._plan())
        tree = join_tree()
        machine.submit(tree)
        report = machine.run()
        assert report.results[tree.name].same_rows_as(oracle)
        inj = machine.sim.faults
        assert inj.total("ic.failure") > 0
        assert inj.total("ic.failover") == inj.total("ic.failure")

    def test_failovers_bounded_by_plan(self, catalog):
        max_failovers = 2
        machine = build_machine(catalog, self._plan(max_failovers=max_failovers))
        tree = join_tree()
        machine.submit(tree)
        report = machine.run()
        oracle = execute(join_tree(), catalog)
        assert report.results[tree.name].same_rows_as(oracle)
        # rate=1.0 strikes every activation until the bound stops re-arming.
        assert machine._failovers[tree.name] == max_failovers

    def test_concurrent_queries_all_survive_failover(self, catalog):
        builders = [
            lambda: scan("big").restrict(attr("g") == 2).tree("q1"),
            lambda: join_tree("q2"),
            lambda: scan("small").project(["g"]).tree("q3"),
        ]
        oracles = {}
        for b in builders:
            t = b()
            oracles[t.name] = execute(t, catalog)
        machine = build_machine(catalog, self._plan(max_failovers=1), processors=6)
        for b in builders:
            machine.submit(b())
        report = machine.run()
        for name, oracle in oracles.items():
            assert report.results[name].same_rows_as(oracle), name
        assert machine.sim.faults.total("ic.failover") >= 1

    def test_requires_fault_tolerant_mode(self, catalog):
        machine = build_machine(catalog, self._plan(), fault_tolerant=False)
        machine.submit(join_tree())
        with pytest.raises(FaultError, match="fault_tolerant"):
            machine.run()

    def test_same_seed_same_failover_run(self, catalog):
        def one_run():
            machine = build_machine(catalog, self._plan())
            tree = join_tree()
            machine.submit(tree)
            report = machine.run()
            return (
                report.elapsed_ms,
                report.events_processed,
                machine.sim.faults.snapshot(),
            )

        assert one_run() == one_run()
