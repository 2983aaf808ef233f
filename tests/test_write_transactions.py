"""Write transactions through the machines: locks, faults, serving, dirty pages.

The execution-side half of the durability work (ISSUE 10): the mixed
update workload runs byte-identically on all three machines against the
interpreter oracle; the MC lock manager's S->X upgrade path refuses
instead of deadlocking; soft faults (lossy ring, IC failover) abort and
retry write transactions without ever corrupting durable state; the
serving mode's ``write_mix`` reports abort/retry percentiles; and the
storage substrate tracks page dirtiness for the WAL to flush.
"""

import pytest

from repro.dataflow.machine import DataflowMachine
from repro.direct.cache import DiskCache
from repro.direct.exec_model import ExecModel
from repro.direct.machine import DirectMachine
from repro.direct.traffic import TrafficMeter
from repro.errors import ConcurrencyError, SchemaError, WorkloadError
from repro.experiments.chaos_sweep import (
    STATEFUL_FAULTS,
    WRITE_MACHINE_FAULTS,
    _spec_for,
    run_faulted_write_benchmark,
)
from repro.faults import FaultPlan
from repro.query.builder import delete_from, scan
from repro.recovery.harness import run_crash_trial
from repro.relational.catalog import Catalog
from repro.relational.heapfile import HeapFile, RowId
from repro.relational.page import Page
from repro.relational.predicate import attr
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.ring.concurrency import LockManager, LockMode, LockRequest
from repro.ring.machine import RingMachine
from repro.serve import ServeConfig, serve
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.workload import generate_benchmark_database
from repro.workload.updates import mixed_update_workload


MACHINES = {"ring": RingMachine, "direct": DirectMachine, "dataflow": DataflowMachine}


def req(name, shared=(), exclusive=()):
    return LockRequest(
        query_name=name, shared=frozenset(shared), exclusive=frozenset(exclusive)
    )


# ----------------------------------------------------------- workload stream


class TestMixedUpdateWorkload:
    def setup_method(self):
        self.db = generate_benchmark_database(scale=0.02, seed=9, page_bytes=2048)

    def test_deterministic_in_seed(self):
        a = mixed_update_workload(self.db.catalog, self.db.relation_names, seed=1)
        b = mixed_update_workload(self.db.catalog, self.db.relation_names, seed=1)
        assert [t.name for t in a] == [t.name for t in b]
        assert [type(t.root).__name__ for t in a] == [
            type(t.root).__name__ for t in b
        ]

    def test_write_fraction_extremes(self):
        from repro.recovery.apply import write_target

        reads = mixed_update_workload(
            self.db.catalog, self.db.relation_names, seed=2, write_fraction=0.0
        )
        writes = mixed_update_workload(
            self.db.catalog, self.db.relation_names, seed=2, write_fraction=1.0
        )
        assert all(write_target(t.root) is None for t in reads)
        assert all(write_target(t.root) is not None for t in writes)

    def test_bad_write_fraction_rejected(self):
        with pytest.raises(WorkloadError):
            mixed_update_workload(
                self.db.catalog, self.db.relation_names, write_fraction=1.5
            )


# -------------------------------------------------- machines vs the oracle


class TestWriteExecution:
    @pytest.mark.parametrize("machine", ["ring", "direct", "dataflow"])
    def test_all_write_stream_matches_interpreter(self, machine):
        trial = run_crash_trial(
            machine=machine, seed=8, crash_rate=0.0, write_fraction=1.0, queries=6
        )
        assert trial.commits == 6
        assert trial.byte_identical
        assert trial.ok

    @pytest.mark.parametrize("machine", ["ring", "direct", "dataflow"])
    def test_write_without_wal_installs_at_machine_page_size(self, machine, pair_schema):
        catalog = Catalog()
        catalog.register(
            Relation.from_rows("t", pair_schema, [(i, i % 4) for i in range(60)], page_bytes=128)
        )
        m = MACHINES[machine](catalog, processors=2, page_bytes=128)
        m.submit(delete_from("t", attr("grp") == 0, name="d"))
        m.run()
        assert catalog.get("t").cardinality == 45
        assert catalog.get("t").page_bytes == 128

    @pytest.mark.parametrize("machine", ["ring", "direct", "dataflow"])
    def test_append_rows_are_checked_against_the_target(self, machine, pair_schema):
        # An append node checks only arity: FLOAT rows must not land in
        # an INT column.
        floats = Schema.build(("k", DataType.INT), ("grp", DataType.FLOAT))
        catalog = Catalog()
        catalog.register(
            Relation.from_rows("src", floats, [(i, i + 0.5) for i in range(20)], page_bytes=128)
        )
        catalog.register(Relation("sink", pair_schema, page_bytes=128))
        m = MACHINES[machine](catalog, processors=2, page_bytes=128)
        m.submit(scan("src").restrict(attr("k") < 10).append_into("sink").tree("a"))
        with pytest.raises(SchemaError, match="'grp' expects int"):
            m.run()
        assert catalog.get("sink").cardinality == 0


# ------------------------------------------------------------- lock upgrades


class TestLockUpgrade:
    def test_sole_holder_upgrades(self):
        lm = LockManager()
        lm.try_acquire(req("w", shared={"r"}))
        assert lm.try_upgrade("w", "r")
        assert lm.mode_of("r") is LockMode.EXCLUSIVE
        # The upgraded lock now excludes readers.
        assert not lm.try_acquire(req("q", shared={"r"}))

    def test_second_holder_refuses_upgrade(self):
        lm = LockManager()
        lm.try_acquire(req("w1", shared={"r"}))
        lm.try_acquire(req("w2", shared={"r"}))
        # Non-blocking refusal on both sides — the classic upgrade
        # deadlock cannot form; a refused writer aborts and retries.
        assert not lm.try_upgrade("w1", "r")
        assert not lm.try_upgrade("w2", "r")
        assert lm.mode_of("r") is LockMode.SHARED

    def test_refused_holder_releases_then_other_upgrades(self):
        lm = LockManager()
        lm.try_acquire(req("w1", shared={"r"}))
        lm.try_acquire(req("w2", shared={"r"}))
        assert not lm.try_upgrade("w2", "r")
        lm.release("w1")
        assert lm.try_upgrade("w2", "r")
        assert lm.mode_of("r") is LockMode.EXCLUSIVE

    def test_already_exclusive_is_idempotent(self):
        lm = LockManager()
        lm.try_acquire(req("w", exclusive={"r"}))
        assert lm.try_upgrade("w", "r")
        assert lm.mode_of("r") is LockMode.EXCLUSIVE

    def test_upgrade_without_any_lock_raises(self):
        with pytest.raises(ConcurrencyError):
            LockManager().try_upgrade("ghost", "r")

    def test_upgrade_without_s_on_relation_raises(self):
        lm = LockManager()
        lm.try_acquire(req("w", shared={"other"}))
        with pytest.raises(ConcurrencyError):
            lm.try_upgrade("w", "r")

    def test_release_after_upgrade_frees_relation(self):
        lm = LockManager()
        lm.try_acquire(req("w", shared={"r"}))
        lm.try_upgrade("w", "r")
        lm.release("w")
        assert lm.try_acquire(req("q", exclusive={"r"}))


# ------------------------------------------------- faulted write benchmarks


class TestFaultedWrites:
    def run_cell(self, machine, fault, rate, seed=2027):
        plan = FaultPlan(seed=seed, specs=(_spec_for(fault, rate),))
        return run_faulted_write_benchmark(
            machine, plan, scale=0.02, queries=8, processors=4, seed=seed
        )

    def test_ring_survives_ic_failover(self):
        cell = self.run_cell("ring", "ic_failure", 0.3)
        assert cell["all_correct"]
        assert cell["commits"] > 0

    def test_ring_survives_lossy_ring(self):
        cell = self.run_cell("ring", "ring_drop", 0.05)
        assert cell["all_correct"]
        drops = sum(
            n for key, n in cell["counters"].items() if key.startswith("ring.drop")
        )
        assert drops > 0

    def test_direct_survives_disk_retries(self):
        cell = self.run_cell("direct", "disk_read_error", 0.1)
        assert cell["all_correct"]

    def test_stateful_faults_not_in_read_grid(self):
        from repro.experiments.chaos_sweep import MACHINE_FAULTS

        for faults in MACHINE_FAULTS.values():
            assert not (set(faults) & set(STATEFUL_FAULTS))
        assert set(STATEFUL_FAULTS) == {
            "machine_crash", "torn_page", "log_tail_corrupt",
        }

    def test_unknown_write_machine_rejected(self):
        from repro.errors import FaultError

        plan = FaultPlan(seed=1, specs=(_spec_for("ic_failure", 0.1),))
        assert "dataflow" not in WRITE_MACHINE_FAULTS
        with pytest.raises(FaultError):
            run_faulted_write_benchmark("dataflow", plan)


# ------------------------------------------------------------ serving writes


SERVE_BASE = dict(
    rate_qps=20.0,
    duration_ms=1200.0,
    scale=0.02,
    b_domain=25,
    seed=11,
    processors=4,
    max_inflight=4,
    queue_limit=16,
)


class TestServeWriteMix:
    def test_write_mix_reports_retry_percentiles(self):
        slo = serve(ServeConfig(machine="ring", write_mix=0.4, **SERVE_BASE))
        writes = slo["writes"]
        assert writes["commits"] > 0
        assert 0.0 <= writes["abort_rate"] <= 1.0
        assert writes["retries_p50"] <= writes["retries_p99"] <= writes["retries_max"]

    def test_zero_write_mix_has_no_writes_section(self):
        slo = serve(ServeConfig(machine="ring", write_mix=0.0, **SERVE_BASE))
        assert "writes" not in slo

    def test_write_mix_is_deterministic(self):
        import json

        config = ServeConfig(machine="ring", write_mix=0.4, **SERVE_BASE)
        a = json.dumps(serve(config), sort_keys=True)
        b = json.dumps(serve(config), sort_keys=True)
        assert a == b

    def test_write_mix_out_of_range_rejected(self):
        with pytest.raises(WorkloadError, match="write_mix"):
            serve(ServeConfig(machine="ring", write_mix=1.5, **SERVE_BASE))

    @pytest.mark.parametrize("machine", ["direct", "dataflow"])
    def test_write_mix_needs_the_lock_manager(self, machine):
        with pytest.raises(WorkloadError, match="lock manager"):
            serve(ServeConfig(machine=machine, write_mix=0.2, **SERVE_BASE))


# --------------------------------------------------------- dirty page tracking


class TestPageDirty:
    def test_fresh_page_is_clean(self, pair_schema):
        assert not Page(pair_schema, page_bytes=64).dirty

    def test_append_marks_dirty(self, pair_schema):
        page = Page(pair_schema, page_bytes=64)
        page.append((1, 2))
        assert page.dirty

    def test_mutate_row_returns_old_and_marks_dirty(self, pair_schema):
        page = Page(pair_schema, page_bytes=64)
        page.append((1, 2))
        page.mark_clean()
        assert page.mutate_row(0, (9, 9)) == (1, 2)
        assert page.dirty
        assert page.row(0) == (9, 9)

    def test_mutate_row_bounds_checked(self, pair_schema):
        from repro.errors import PageError

        page = Page(pair_schema, page_bytes=64)
        with pytest.raises(PageError):
            page.mutate_row(0, (1, 1))

    def test_mutate_row_validates(self, pair_schema):
        page = Page(pair_schema, page_bytes=64)
        page.append((1, 2))
        with pytest.raises(Exception):
            page.mutate_row(0, ("bad", 1))

    def test_from_bytes_round_trip_is_clean(self, pair_schema):
        page = Page(pair_schema, page_bytes=64)
        page.append((1, 2))
        restored = Page.from_bytes(pair_schema, page.to_bytes())
        assert not restored.dirty
        assert list(restored) == [(1, 2)]

    def test_copy_preserves_dirty(self, pair_schema):
        page = Page(pair_schema, page_bytes=64)
        page.append((1, 2))
        assert page.copy().dirty
        page.mark_clean()
        assert not page.copy().dirty


class TestHeapFileDirty:
    def make_heap(self, schema, rows=6):
        hf = HeapFile("h", schema, page_bytes=64)
        hf.insert_many([(i, i * 10) for i in range(rows)])
        return hf

    def test_insert_dirties_touched_pages(self, pair_schema):
        hf = self.make_heap(pair_schema)
        assert hf.dirty_page_numbers() == list(range(hf.page_count))

    def test_flush_dirty_without_cache_clears(self, pair_schema):
        hf = self.make_heap(pair_schema)
        flushed = hf.flush_dirty()
        assert flushed == hf.page_count
        assert hf.dirty_page_numbers() == []
        assert hf.flush_dirty() == 0

    def test_mutation_redirties_one_page(self, pair_schema):
        hf = self.make_heap(pair_schema)
        hf.flush_dirty()
        hf.delete(RowId(1, 0))
        assert hf.dirty_page_numbers() == [1]

    def test_flush_dirty_through_disk_cache(self, pair_schema):
        hf = self.make_heap(pair_schema)
        sim = Simulator()
        ports = Resource(sim, "ports", capacity=2)
        disks = [Resource(sim, "d0")]
        cache = DiskCache(sim, TrafficMeter(), ExecModel(page_bytes=64), 8, ports, disks)
        flushed = hf.flush_dirty(cache)
        sim.run()
        assert flushed == hf.page_count
        assert hf.dirty_page_numbers() == []
