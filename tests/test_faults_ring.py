"""Lossy rings (requirement 5): drops, corruption, NAKs, retransmission.

Every recovery run must produce exactly the oracle's rows — the link
layer may slow the machine down, but it must never reorder or lose the
Section 4 protocol's messages.
"""

import pytest

from repro.errors import PacketError, RetryExhaustedError
from repro.faults import FaultPlan, FaultSpec
from repro.obs import configured
from repro.relational.catalog import Catalog
from repro.relational.predicate import attr
from repro.relational.relation import Relation
from repro.relational.schema import DataType, Schema
from repro.query import execute
from repro.query.builder import scan
from repro.ring.machine import RingMachine
from repro.ring.packets import (
    ControlMessage,
    ControlPacket,
    InstructionPacket,
    ResultPacket,
    SourceOperand,
    flip_byte,
)

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


def join_tree(name="lossy"):
    return (
        scan("big")
        .restrict(attr("k") < 300)
        .equijoin(scan("small").restrict(attr("k") < 150), "g", "g")
        .tree(name)
    )


def build_machine(catalog, plan=None, processors=6, **kwargs):
    defaults = dict(controllers=8, page_bytes=128, cache_bytes=32 * 128)
    defaults.update(kwargs)
    if plan is None:
        return RingMachine(catalog, processors=processors, **defaults)
    with configured(faults=plan):
        return RingMachine(catalog, processors=processors, **defaults)


def drop_plan(rate, site="*", seed=7, **spec_kwargs):
    return FaultPlan(
        seed=seed, specs=(FaultSpec(kind="ring_drop", rate=rate, site=site, **spec_kwargs),)
    )


class TestDropRecovery:
    def test_dropped_packets_retransmitted_oracle_exact(self, catalog):
        oracle = execute(join_tree(), catalog)
        machine = build_machine(catalog, plan=drop_plan(0.08))
        tree = join_tree()
        machine.submit(tree)
        report = machine.run()
        assert report.results[tree.name].same_rows_as(oracle)
        inj = machine.sim.faults
        assert inj.total("ring.drop") > 0
        assert inj.total("ring.retransmit") >= inj.total("ring.drop")

    def test_loss_slows_but_never_corrupts(self, catalog):
        tree_a = join_tree("a")
        clean = build_machine(catalog)
        clean.submit(tree_a)
        healthy = clean.run().elapsed_ms

        tree_b = join_tree("b")
        lossy = build_machine(catalog, plan=drop_plan(0.08))
        lossy.submit(tree_b)
        degraded = lossy.run().elapsed_ms
        assert degraded > healthy

    def test_retransmits_recharge_ring_bytes(self, catalog):
        tree = join_tree()
        clean = build_machine(catalog)
        clean.submit(join_tree())
        clean.run()
        lossy = build_machine(catalog, plan=drop_plan(0.08))
        lossy.submit(tree)
        lossy.run()
        clean_bytes = clean.outer_ring.bytes_carried + clean.inner_ring.bytes_carried
        lossy_bytes = lossy.outer_ring.bytes_carried + lossy.inner_ring.bytes_carried
        assert lossy_bytes > clean_bytes


class TestCorruptRecovery:
    def test_corrupted_packets_naked_and_retransmitted(self, catalog):
        oracle = execute(join_tree(), catalog)
        plan = FaultPlan(seed=7, specs=(FaultSpec(kind="ring_corrupt", rate=0.08),))
        machine = build_machine(catalog, plan=plan)
        tree = join_tree()
        machine.submit(tree)
        report = machine.run()
        assert report.results[tree.name].same_rows_as(oracle)
        inj = machine.sim.faults
        assert inj.total("ring.corrupt") > 0
        assert inj.total("ring.nak") == inj.total("ring.corrupt")
        assert inj.total("ring.retransmit") >= inj.total("ring.nak")

    def test_mixed_drop_and_corrupt(self, catalog):
        oracle = execute(join_tree(), catalog)
        plan = FaultPlan(
            seed=11,
            specs=(
                FaultSpec(kind="ring_drop", rate=0.05),
                FaultSpec(kind="ring_corrupt", rate=0.05),
            ),
        )
        machine = build_machine(catalog, plan=plan)
        tree = join_tree()
        machine.submit(tree)
        report = machine.run()
        assert report.results[tree.name].same_rows_as(oracle)
        inj = machine.sim.faults
        assert inj.total("ring.drop") > 0
        assert inj.total("ring.corrupt") > 0


class TestConservationAndDeterminism:
    def test_lossy_run_passes_packet_conservation(self, catalog):
        plan = FaultPlan(
            seed=11,
            specs=(
                FaultSpec(kind="ring_drop", rate=0.05),
                FaultSpec(kind="ring_corrupt", rate=0.05),
            ),
        )
        with configured(sanitize=True):
            machine = build_machine(catalog, plan=plan)
            tree = join_tree()
            machine.submit(tree)
            machine.run()
        assert machine.outer_ring.packets_injected == machine.outer_ring.packets_removed
        assert machine.inner_ring.packets_injected == machine.inner_ring.packets_removed
        assert machine.sim.faults.total("ring.retransmit") > 0

    def test_same_seed_same_run(self, catalog):
        def one_run():
            machine = build_machine(catalog, plan=drop_plan(0.08))
            tree = join_tree()
            machine.submit(tree)
            report = machine.run()
            return (
                report.elapsed_ms,
                machine.outer_ring.bytes_carried,
                machine.inner_ring.bytes_carried,
                machine.sim.faults.snapshot(),
            )

        assert one_run() == one_run()

    def test_zero_strike_armed_run_identical_to_unarmed(self, catalog):
        # A plan armed at a site that never matches exercises the arming
        # machinery without a single strike; it must be indistinguishable
        # from an unarmed run.
        def one_run(plan):
            machine = build_machine(catalog, plan=plan)
            tree = join_tree()
            machine.submit(tree)
            report = machine.run()
            return (
                report.elapsed_ms,
                report.events_processed,
                machine.outer_ring.bytes_carried,
                machine.inner_ring.bytes_carried,
            )

        unarmed = one_run(None)
        ghost = one_run(drop_plan(0.5, site="no-such-ring"))
        assert ghost == unarmed


class TestRetryExhaustion:
    def test_unrecoverable_ring_raises(self, catalog):
        plan = drop_plan(1.0, max_retries=2)
        machine = build_machine(catalog, plan=plan)
        machine.submit(join_tree())
        with pytest.raises(RetryExhaustedError, match="ring"):
            machine.run()


class TestBroadcastJoinUnderLoss:
    """Satellite: the Section 4 broadcast-join protocol (IRC vectors and
    the missed-page list) survives data-ring packet loss."""

    def test_inner_broadcasts_survive_outer_ring_loss(self, catalog):
        oracle = execute(join_tree(), catalog)
        plan = drop_plan(0.10, site="outer-ring", seed=3)
        machine = build_machine(catalog, plan=plan)

        broadcast_counts = {}
        original = machine.ic_broadcast_inner

        def spying_broadcast(ic, index, page, last_known, delivered):
            broadcast_counts[index] = broadcast_counts.get(index, 0) + 1
            original(ic, index, page, last_known, delivered)

        machine.ic_broadcast_inner = spying_broadcast
        tree = join_tree()
        machine.submit(tree)
        report = machine.run()

        # The join's rows are exactly the oracle's despite lost packets.
        assert report.results[tree.name].same_rows_as(oracle)
        inj = machine.sim.faults
        assert inj.total("ring.retransmit") > 0
        assert "ring.drop[outer-ring]" in inj.snapshot()
        # Every inner page past the one shipped inline with the join
        # instruction reached the IPs through the broadcast path.
        assert broadcast_counts
        indexes = sorted(broadcast_counts)
        assert indexes == list(range(indexes[0], indexes[-1] + 1))
        assert indexes[0] <= 1

    def test_missed_pages_rebroadcast(self, catalog):
        # Two concurrent joins keep IPs busy, so some request inner pages
        # after the original broadcast passed them by — the IC must serve
        # the missed-page list by re-broadcasting.
        trees = [join_tree("m1"), join_tree("m2")]
        oracles = {t.name: execute(t, catalog) for t in trees}
        plan = drop_plan(0.10, site="outer-ring", seed=3)
        machine = build_machine(catalog, plan=plan, processors=4)

        rebroadcasts = {"count": 0}
        seen = set()
        original = machine.ic_broadcast_inner

        def spying_broadcast(ic, index, page, last_known, delivered):
            key = (id(ic), index)
            if key in seen:
                rebroadcasts["count"] += 1
            seen.add(key)
            original(ic, index, page, last_known, delivered)

        machine.ic_broadcast_inner = spying_broadcast
        for tree in trees:
            machine.submit(tree)
        report = machine.run()
        for name, oracle in oracles.items():
            assert report.results[name].same_rows_as(oracle), name
        assert rebroadcasts["count"] > 0


class TestChecksumDetection:
    """The CRC-32 trailer of the Figure 4.3-4.5 codecs catches the bit
    damage that ``ring_corrupt`` models."""

    def _page(self, rows=3):
        from repro.relational.page import Page

        page = Page(SCHEMA, 128)
        for i in range(rows):
            page.append((i, i % 8))
        return page.to_bytes()

    def test_instruction_packet_corruption_detected(self):
        packet = InstructionPacket(
            ip_id=9,
            query_id=4,
            sender_ic=2,
            destination_ic=6,
            flush_when_done=True,
            opcode="restrict",
            result_relation="out",
            result_schema=SCHEMA,
            operands=[SourceOperand("src", SCHEMA, self._page())],
            tag=3,
        )
        wire = packet.encode()
        assert InstructionPacket.decode(wire) == packet
        for offset in (8, len(wire) // 2, -1):
            with pytest.raises(PacketError):
                InstructionPacket.decode(flip_byte(wire, offset))

    def test_result_packet_corruption_detected(self):
        wire = ResultPacket(ic_id=5, relation_name="res", page_bytes=self._page()).encode()
        for offset in (9, len(wire) // 2, -1):
            with pytest.raises(PacketError):
                ResultPacket.decode(flip_byte(wire, offset))

    def test_control_packet_corruption_detected(self):
        wire = ControlPacket(
            ic_id=2, sender_ip=7, message=ControlMessage.DONE, argument=13
        ).encode()
        for offset in range(len(wire)):
            with pytest.raises(PacketError):
                ControlPacket.decode(flip_byte(wire, offset))
