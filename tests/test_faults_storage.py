"""Storage faults on the DIRECT machine: transient disk read errors and
poisoned cache frames, both recovered from the mass-storage copy."""

import pytest

from repro.errors import RetryExhaustedError
from repro.faults import FaultPlan, FaultSpec
from repro.obs import configured
from repro.relational.catalog import Catalog
from repro.relational.predicate import attr
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.query import execute
from repro.query.builder import scan
from repro.direct.machine import DirectMachine

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


def join_tree(name="storage"):
    return (
        scan("big")
        .restrict(attr("k") < 300)
        .equijoin(scan("small").restrict(attr("k") < 150), "g", "g")
        .tree(name)
    )


def build_machine(catalog, plan=None, **kwargs):
    defaults = dict(processors=4, page_bytes=128)
    defaults.update(kwargs)
    if plan is None:
        return DirectMachine(catalog, **defaults)
    with configured(faults=plan):
        return DirectMachine(catalog, **defaults)


class TestDiskReadErrors:
    def test_transient_errors_retried_oracle_exact(self, catalog):
        oracle = execute(join_tree(), catalog)
        plan = FaultPlan(seed=5, specs=(FaultSpec(kind="disk_read_error", rate=0.15),))
        machine = build_machine(catalog, plan=plan)
        tree = join_tree()
        machine.submit(tree)
        report = machine.run()
        assert report.results[tree.name].same_rows_as(oracle)
        inj = machine.sim.faults
        assert inj.total("disk.read_error") > 0
        assert inj.total("disk.retry") == inj.total("disk.read_error")

    def test_retries_cost_time(self, catalog):
        tree_a = join_tree("a")
        clean = build_machine(catalog)
        clean.submit(tree_a)
        healthy = clean.run().elapsed_ms

        tree_b = join_tree("b")
        plan = FaultPlan(seed=5, specs=(FaultSpec(kind="disk_read_error", rate=0.15),))
        faulty = build_machine(catalog, plan=plan)
        faulty.submit(tree_b)
        degraded = faulty.run().elapsed_ms
        assert degraded > healthy

    def test_exhaustion_raises_naming_the_drive(self, catalog):
        plan = FaultPlan(
            seed=5,
            specs=(FaultSpec(kind="disk_read_error", rate=1.0, max_retries=2),),
        )
        machine = build_machine(catalog, plan=plan)
        machine.submit(join_tree())
        with pytest.raises(RetryExhaustedError, match="disk"):
            machine.run()


class TestCachePoison:
    def test_poisoned_frames_refetched_oracle_exact(self, catalog):
        # Poison strikes clean resident frames at hit time, so run the
        # join three times: the later runs hit the frames the first run
        # faulted in.
        trees = [join_tree(n) for n in ("p1", "p2", "p3")]
        oracles = {t.name: execute(t, catalog) for t in trees}
        plan = FaultPlan(seed=5, specs=(FaultSpec(kind="cache_poison", rate=0.10),))
        machine = build_machine(catalog, plan=plan)
        for tree in trees:
            machine.submit(tree)
        report = machine.run()
        for name, oracle in oracles.items():
            assert report.results[name].same_rows_as(oracle), name
        inj = machine.sim.faults
        assert inj.total("cache.poison") > 0
        assert inj.total("cache.refetch") == inj.total("cache.poison")

    def test_combined_storage_faults_under_sanitizer(self, catalog):
        oracle = execute(join_tree(), catalog)
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(kind="disk_read_error", rate=0.10),
                FaultSpec(kind="cache_poison", rate=0.05),
            ),
        )
        with configured(sanitize=True):
            machine = build_machine(catalog, plan=plan)
            tree = join_tree()
            machine.submit(tree)
            report = machine.run()
        assert report.results[tree.name].same_rows_as(oracle)
        assert machine.sim.faults.total("disk.retry") > 0


class TestStorageDeterminism:
    def test_same_seed_same_run(self, catalog):
        def one_run():
            plan = FaultPlan(
                seed=5,
                specs=(
                    FaultSpec(kind="disk_read_error", rate=0.10),
                    FaultSpec(kind="cache_poison", rate=0.05),
                ),
            )
            machine = build_machine(catalog, plan=plan)
            tree = join_tree()
            machine.submit(tree)
            report = machine.run()
            return (report.elapsed_ms, machine.sim.faults.snapshot())

        assert one_run() == one_run()

    def test_zero_strike_armed_run_identical_to_unarmed(self, catalog):
        # Ring fault kinds never match a DIRECT machine site, so the plan
        # arms the injector without a single strike.
        def one_run(plan):
            machine = build_machine(catalog, plan=plan)
            tree = join_tree()
            machine.submit(tree)
            report = machine.run()
            return (report.elapsed_ms, report.events_processed)

        unarmed = one_run(None)
        ghost = one_run(
            FaultPlan(seed=5, specs=(FaultSpec(kind="ring_drop", rate=0.5),))
        )
        assert ghost == unarmed
