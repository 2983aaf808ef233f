"""The runtime ``LockOrderWitness`` and the ``LockManager`` grants it checks."""

import json

import pytest

from repro.check.sanitizer import LockOrderWitness
from repro.errors import SanitizerError
from repro.obs import configured
from repro.ring.concurrency import LockManager, LockRequest


def test_witness_raises_on_inversion_naming_both_sites():
    witness = LockOrderWitness()
    witness.record("q1", "rel_a", "site-one")
    witness.record("q1", "rel_b", "site-two")
    witness.release("q1")
    witness.record("q2", "rel_b", "site-three")
    with pytest.raises(SanitizerError) as excinfo:
        witness.record("q2", "rel_a", "site-four")
    message = str(excinfo.value)
    assert "site-four" in message and "site-two" in message
    assert "rel_a" in message and "rel_b" in message


def test_witness_consistent_orders_pass():
    witness = LockOrderWitness()
    for query in ("q1", "q2", "q3"):
        witness.record(query, "rel_a", f"{query}-a")
        witness.record(query, "rel_b", f"{query}-b")
        witness.release(query)
    assert witness.acquisitions == 6
    assert witness.edge_count == 1


def test_witness_two_query_interleaved_inversion():
    # The seeded scenario from the issue: two live queries acquiring in
    # opposite orders; the second acquisition of the second query trips.
    witness = LockOrderWitness()
    witness.record("q1", "parts", "q1 acquires parts")
    witness.record("q1", "orders", "q1 acquires orders")
    witness.record("q2", "orders", "q2 acquires orders")
    with pytest.raises(SanitizerError) as excinfo:
        witness.record("q2", "parts", "q2 acquires parts")
    message = str(excinfo.value)
    assert "q2 acquires parts" in message
    assert "q1 acquires orders" in message


def test_lock_manager_feeds_its_bound_witness():
    witness = LockOrderWitness()
    manager = LockManager(witness=witness)
    granted = manager.try_acquire(
        LockRequest("q1", frozenset({"r1", "r2"}), frozenset({"r3"}))
    )
    assert granted
    assert witness.acquisitions == 3
    assert manager.try_upgrade("q1", "r1")
    assert witness.acquisitions == 4
    manager.release("q1")
    assert witness._held == {}


def test_sorted_all_at_once_grants_never_trip_the_witness():
    witness = LockOrderWitness()
    manager = LockManager(witness=witness)
    # Overlapping lock sets granted sequentially; sorted acquisition
    # order inside try_acquire keeps every pair consistent.
    manager.try_acquire(LockRequest("q1", frozenset({"a", "b", "c"}), frozenset()))
    manager.release("q1")
    manager.try_acquire(LockRequest("q2", frozenset({"c", "a"}), frozenset({"b"})))
    manager.release("q2")
    manager.try_acquire(LockRequest("q3", frozenset(), frozenset({"b", "a"})))
    manager.release("q3")
    assert witness.acquisitions == 8


def test_sanitized_machine_binds_its_witness_for_a_run_after_the_block():
    # The witness binds at construction like every other run mode, so a
    # machine built in sanitize mode and run after the block still has
    # every lock grant checked.
    from repro.ring.machine import RingMachine
    from repro.workload import generate_benchmark_database
    from repro.workload.updates import mixed_update_workload

    db = generate_benchmark_database(scale=0.02, seed=8)
    workload = mixed_update_workload(
        db.catalog, db.relation_names, seed=8, count=6, write_fraction=1.0
    )
    with configured(sanitize=True):
        machine = RingMachine(db.catalog, processors=4)
    for tree in workload:
        machine.submit(tree)
    machine.run()
    witness = machine.sim.sanitizer.witness
    assert machine.mc.locks._witness is witness
    assert witness.acquisitions >= len(workload)
    assert RingMachine(db.catalog, processors=4).mc.locks._witness is None


def test_zero_inversion_serving_run_is_byte_identical_to_unwitnessed():
    from repro.serve import ServeConfig
    from repro.serve.service import serve

    config = ServeConfig(
        machine="ring",
        rate_qps=20.0,
        duration_ms=400.0,
        scale=0.02,
        b_domain=25,
        processors=2,
    )
    plain = json.dumps(serve(config), sort_keys=True)
    with configured(sanitize=True):
        witnessed = json.dumps(serve(config), sort_keys=True)
    assert witnessed == plain
