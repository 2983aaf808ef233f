"""Crash-recovery trials: run, crash, recover, compare against the oracle.

One trial is the whole durability story end to end:

1. generate the benchmark database and a mixed read/write workload;
2. run it on a machine with the WAL armed and a fault plan that may
   strike a whole-machine crash (plus torn pages and a corrupt log
   tail at the moment of the crash);
3. if the crash fires, model the power cut
   (:meth:`~repro.recovery.txn.TransactionManager.crash`) and restart
   via :func:`repro.recovery.restart.recover`;
4. replay the *recovered* committed set, in commit order, through the
   reference interpreter on a fresh copy of the database, canonicalize,
   and compare **bytes**.

The oracle is defined post-recovery on purpose: the durable log tail
may contain a coincidentally valid COMMIT whose acknowledgement never
reached the host.  Recovering such a transaction is correct (it is in
the durable log), so the contract is two-sided — recovered committed
state equals the replay of the recovered commit list, *and* every
acknowledged commit appears in that list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.errors import CrashError, ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.query.interpreter import execute
from repro.query.tree import QueryTree
from repro.recovery.apply import canonical_pages, write_target
from repro.recovery.restart import RecoveryReport, recover
from repro.recovery.store import StableStore
from repro.recovery.txn import TransactionManager
from repro.workload.generator import generate_benchmark_database
from repro.workload.updates import mixed_update_workload

__all__ = ["CrashTrialResult", "run_crash_trial", "oracle_bytes"]

MACHINES = ("ring", "direct", "dataflow")


@dataclass
class CrashTrialResult:
    """Everything one trial produced, byte-comparable."""

    machine: str
    seed: int
    write_fraction: float
    crash_rate: float
    crashed: bool
    committed: List[str]
    acknowledged: List[str]
    byte_identical: bool
    acknowledged_durable: bool
    recovered_bytes: bytes
    oracle: bytes
    elapsed_ms: float
    commits: int
    aborts: int
    events: int = 0
    recovery: Optional[Dict] = None
    damaged_repaired: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The durability contract held."""
        return self.byte_identical and self.acknowledged_durable

    def to_dict(self) -> Dict:
        """JSON-friendly summary (bytes elided, only their verdicts)."""
        return {
            "machine": self.machine,
            "seed": self.seed,
            "write_fraction": self.write_fraction,
            "crash_rate": self.crash_rate,
            "crashed": self.crashed,
            "committed": self.committed,
            "acknowledged": self.acknowledged,
            "byte_identical": self.byte_identical,
            "acknowledged_durable": self.acknowledged_durable,
            "elapsed_ms": self.elapsed_ms,
            "commits": self.commits,
            "aborts": self.aborts,
            "recovery": self.recovery,
            "damaged_repaired": self.damaged_repaired,
            "ok": self.ok,
        }


def _build_machine(machine: str, catalog, page_bytes: int, processors: int):
    if machine == "ring":
        from repro.ring.machine import RingMachine

        return RingMachine(catalog, processors=processors, page_bytes=page_bytes)
    if machine == "direct":
        from repro.direct.machine import DirectMachine

        return DirectMachine(catalog, processors=processors, page_bytes=page_bytes)
    if machine == "dataflow":
        from repro.dataflow.machine import DataflowMachine

        return DataflowMachine(catalog, processors=processors, page_bytes=page_bytes)
    raise ReproError(f"unknown machine {machine!r}; pick one of {MACHINES}")


def _run_workload(machine_name: str, machine, queries: List[QueryTree]) -> float:
    """Drive ``queries`` to completion; returns elapsed ms.

    The ring machine takes the whole batch up front — its MC lock
    manager serializes conflicting writes.  DIRECT and dataflow have no
    lock manager, so the harness chains submissions: each query is
    submitted when the previous one completes (deferred one event so
    the machines' completion scans never see a mid-iteration mutation).
    """
    if machine_name == "ring":
        for tree in queries:
            machine.submit(tree)
        report = machine.run()
        return report.elapsed_ms

    pending = list(queries)

    def submit_next(*_args) -> None:
        if pending:
            tree = pending.pop(0)
            machine.sim.schedule(0.0, lambda: machine.submit(tree), label="chain.submit")

    machine.on_query_complete = submit_next
    first = pending.pop(0)
    machine.submit(first)
    report = machine.run_service()
    return report.elapsed_ms


def oracle_bytes(
    committed: List[str],
    queries: List[QueryTree],
    scale: float,
    seed: int,
    page_bytes: int,
) -> bytes:
    """Replay ``committed`` (in order) on a fresh database; canonical bytes.

    Relations a committed write touched are installed in canonical form
    (sorted, densely packed — what every machine's commit installs);
    untouched relations keep their generation-time images.
    """
    db = generate_benchmark_database(scale=scale, seed=seed, page_bytes=page_bytes)
    by_name = {tree.name: tree for tree in queries}
    written: Dict[str, None] = {}
    for name in committed:
        tree = by_name[name]
        execute(tree, db.catalog)
        target = write_target(tree.root)
        if target is not None:
            written[target] = None
    store = StableStore()
    for name in sorted(db.catalog.names):
        relation = db.catalog.get(name)
        if name in written:
            images = canonical_pages(
                relation.schema, list(relation.rows()), page_bytes
            )
        else:
            images = [p.to_bytes() for p in relation.packed_pages(page_bytes)]
        store.seed_relation(name, images)
    return store.committed_bytes()


def run_crash_trial(
    machine: str = "ring",
    seed: int = 0,
    scale: float = 0.02,
    write_fraction: float = 0.5,
    crash_rate: float = 1.0,
    torn_page_rate: float = 0.5,
    log_tail_rate: float = 0.5,
    crash_at_ms: float = 10.0,
    crash_window_ms: float = 120.0,
    queries: int = 12,
    page_bytes: int = 2048,
    processors: int = 4,
    checkpoint_every: int = 4,
) -> CrashTrialResult:
    """One full crash-recovery trial; see the module docstring."""
    db = generate_benchmark_database(scale=scale, seed=seed, page_bytes=page_bytes)
    names = db.relation_names
    workload = mixed_update_workload(
        db.catalog, names, seed=seed, count=queries, write_fraction=write_fraction
    )
    # The workload builder is consumed twice (run + oracle); trees carry
    # process-global node ids, so rebuild rather than reuse across the
    # oracle's fresh catalog.
    store = StableStore()
    tm = TransactionManager(store, page_bytes, checkpoint_every=checkpoint_every)
    plan = FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(
                "machine_crash",
                rate=crash_rate,
                at_ms=crash_at_ms,
                window_ms=crash_window_ms,
            ),
            FaultSpec("torn_page", rate=torn_page_rate),
            FaultSpec("log_tail_corrupt", rate=log_tail_rate),
        ),
    )
    with obs.configured(faults=plan):
        m = _build_machine(machine, db.catalog, page_bytes, processors)
    m.attach_recovery(tm)

    crashed = False
    recovery_report: Optional[RecoveryReport] = None
    repaired: List[str] = []
    try:
        elapsed = _run_workload(machine, m, workload)
    except CrashError:
        crashed = True
        elapsed = m.sim.now
        tm.crash(m.sim.faults)
        recovery_report = recover(store)
        repaired = list(recovery_report.torn_pages_repaired)
        committed = list(recovery_report.committed)
    if not crashed:
        # Clean run (the crash draw missed): the shutdown checkpoint is
        # the recovery point and every acknowledged commit is in it.
        recovery_report = recover(store)
        committed = list(recovery_report.committed)

    recovered = store.committed_bytes()
    oracle = oracle_bytes(committed, workload, scale, seed, page_bytes)
    acknowledged = list(tm.committed_names)
    return CrashTrialResult(
        machine=machine,
        seed=seed,
        write_fraction=write_fraction,
        crash_rate=crash_rate,
        crashed=crashed,
        committed=committed,
        acknowledged=acknowledged,
        byte_identical=recovered == oracle,
        acknowledged_durable=set(acknowledged) <= set(committed),
        recovered_bytes=recovered,
        oracle=oracle,
        elapsed_ms=elapsed,
        commits=tm.commits,
        aborts=tm.aborts,
        events=m.sim.events_processed,
        recovery=recovery_report.to_dict() if recovery_report else None,
        damaged_repaired=repaired,
    )
