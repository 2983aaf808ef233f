"""E14 (extension): chaos sweep — every fault class x rate x machine.

Requirement 5 of Section 4.0 asks that the machine "survive an arbitrary
number of disabled processors"; the fault-injection subsystem
(:mod:`repro.faults`) generalizes that to lossy rings, transient disk
errors, poisoned cache frames, and fail-stopped ICs/IPs.  This
experiment drives the ten-query benchmark through a grid of
``(machine, fault class, fault rate)`` cells and checks **every** cell
against the sequential oracle: chaos may slow the run down (retransmits,
retries, failovers), but it must never change a single result row.

Each cell runs under a seeded :class:`repro.faults.FaultPlan`, so the
whole grid is deterministic — same seed, same strikes, byte-identical
rows — and fans out over :func:`repro.sweep.map_points` (``workers > 1``
parallelizes with identical output).

The grid has two workload rows per (machine, fault, rate) coordinate:

* ``read`` — the original ten-query benchmark, checked row-for-row
  against the sequential oracle;
* ``write`` — a mixed read/write transaction stream with the WAL armed,
  checked **byte-for-byte**: after the run the stable store is
  recovered and compared against an interpreter replay of the committed
  set (:func:`repro.recovery.harness.oracle_bytes`).

The three *stateful* fault classes (``machine_crash``, ``torn_page``,
``log_tail_corrupt``) are whole-machine power-cut models, not
survivable soft faults; they live in E17's recovery sweep
(:mod:`repro.experiments.recovery_sweep`), not here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro import obs
from repro.errors import FaultError
from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.query import execute
from repro.direct.machine import DirectMachine
from repro.experiments.common import ExperimentResult
from repro.ring.machine import RingMachine
from repro.sweep import map_points
from repro.workload import benchmark_queries, generate_benchmark_database

#: Power-cut fault classes: they end the run instead of degrading it,
#: so they belong to the E17 recovery sweep, not the chaos grid.
STATEFUL_FAULTS: Tuple[str, ...] = ("machine_crash", "torn_page", "log_tail_corrupt")

#: Fault classes that exist on each machine.  The DIRECT machine has no
#: rings, ICs, or IPs to break — only its storage hierarchy.
MACHINE_FAULTS: Dict[str, Tuple[str, ...]] = {
    "ring": tuple(k for k in FAULT_KINDS if k not in STATEFUL_FAULTS),
    "direct": ("disk_read_error", "cache_poison"),
}

#: Fault classes the write-transaction cells run under.  ``ip_kill``
#: is excluded on ring: a killed IP degrades read bandwidth but write
#: packets are executed by the MC path, so the cell adds no coverage.
WRITE_MACHINE_FAULTS: Dict[str, Tuple[str, ...]] = {
    "ring": ("ring_drop", "disk_read_error", "cache_poison", "ic_failure"),
    "direct": ("disk_read_error", "cache_poison"),
}

#: Counter names that represent a successful recovery action.
_RECOVERY_COUNTERS = (
    "ring.retransmit",
    "disk.retry",
    "cache.refetch",
    "ic.failover",
    "ip.kill",
)


def _spec_for(fault: str, rate: float) -> FaultSpec:
    """The spec one chaos cell arms for ``fault`` at ``rate``."""
    if fault == "ip_kill":
        return FaultSpec(kind="ip_kill", rate=rate, window_ms=500.0)
    if fault == "ic_failure":
        return FaultSpec(kind="ic_failure", rate=rate, at_ms=50.0, max_failovers=5)
    return FaultSpec(kind=fault, rate=rate)


def run_faulted_benchmark(
    machine: str,
    plan: FaultPlan,
    scale: float = 0.05,
    selectivity: float = 0.3,
    seed: int = 2027,
    page_bytes: int = 2048,
    processors: int = 8,
) -> dict:
    """Run the ten-query benchmark on ``machine`` under ``plan``.

    Returns a JSON-safe summary: ``elapsed_ms``, ``events``,
    ``all_correct`` (against the sequential oracle), ``result_rows``,
    and the injector's recovery ``counters``.  Shared by the chaos sweep
    cells and the ``repro faults`` CLI command.
    """
    if machine not in MACHINE_FAULTS:
        raise FaultError(f"unknown machine {machine!r}; choose from {sorted(MACHINE_FAULTS)}")
    db = generate_benchmark_database(scale=scale, seed=seed, page_bytes=page_bytes)
    oracle = {
        t.name: execute(t, db.catalog)
        for t in benchmark_queries(db.catalog, db.relation_names, selectivity=selectivity)
    }
    trees = benchmark_queries(db.catalog, db.relation_names, selectivity=selectivity)
    if machine == "ring":
        with obs.configured(faults=plan):
            rig = RingMachine(
                db.catalog,
                processors=processors,
                controllers=16,
                page_bytes=page_bytes,
                fault_tolerant=True,
                watchdog_interval_ms=100.0,
            )
        for tree in trees:
            rig.submit(tree)
        report = rig.run()
        sim = rig.sim
    else:
        with obs.configured(faults=plan):
            dm = DirectMachine(db.catalog, processors=processors, page_bytes=page_bytes)
        for tree in trees:
            dm.submit(tree)
        report = dm.run()
        sim = dm.sim
    results = report.results
    elapsed = report.elapsed_ms
    events = report.events_processed
    correct = all(results[name].same_rows_as(expected) for name, expected in oracle.items())
    counters: Dict[str, int] = {}
    if sim.faults is not None:
        counters = sim.faults.snapshot()
    return {
        "elapsed_ms": elapsed,
        "events": events,
        "all_correct": correct,
        "result_rows": sum(len(list(r.rows())) for r in results.values()),
        "counters": counters,
    }


def run_faulted_write_benchmark(
    machine: str,
    plan: FaultPlan,
    scale: float = 0.05,
    write_fraction: float = 0.5,
    seed: int = 2027,
    page_bytes: int = 2048,
    processors: int = 8,
    queries: int = 12,
) -> dict:
    """Run a mixed read/write stream on ``machine`` with the WAL armed.

    Soft faults (lossy rings, disk retries, IC failovers...) may abort
    and retry transactions, but the durable outcome must be exact: the
    recovered stable store is compared *byte-for-byte* against an
    interpreter replay of the committed set.
    """
    from repro.recovery.harness import _run_workload, oracle_bytes
    from repro.recovery.restart import recover
    from repro.recovery.store import StableStore
    from repro.recovery.txn import TransactionManager
    from repro.workload.updates import mixed_update_workload

    if machine not in WRITE_MACHINE_FAULTS:
        raise FaultError(
            f"unknown machine {machine!r}; choose from {sorted(WRITE_MACHINE_FAULTS)}"
        )
    db = generate_benchmark_database(scale=scale, seed=seed, page_bytes=page_bytes)
    workload = mixed_update_workload(
        db.catalog,
        db.relation_names,
        seed=seed,
        count=queries,
        write_fraction=write_fraction,
    )
    store = StableStore()
    tm = TransactionManager(store, page_bytes)
    with obs.configured(faults=plan):
        if machine == "ring":
            rig = RingMachine(
                db.catalog,
                processors=processors,
                controllers=16,
                page_bytes=page_bytes,
                fault_tolerant=True,
                watchdog_interval_ms=100.0,
            )
        else:
            rig = DirectMachine(db.catalog, processors=processors, page_bytes=page_bytes)
    rig.attach_recovery(tm)
    elapsed = _run_workload(machine, rig, workload)
    report = recover(store)
    committed = list(report.committed)
    recovered = store.committed_bytes()
    oracle = oracle_bytes(committed, workload, scale, seed, page_bytes)
    counters: Dict[str, int] = {}
    if rig.sim.faults is not None:
        counters = rig.sim.faults.snapshot()
    return {
        "elapsed_ms": elapsed,
        "events": 0,
        "all_correct": recovered == oracle
        and set(tm.committed_names) <= set(committed),
        "result_rows": len(committed),
        "commits": tm.commits,
        "aborts": tm.aborts,
        "counters": counters,
    }


def _point(
    machine: str,
    fault: str,
    rate: float,
    scale: float,
    selectivity: float,
    seed: int,
    page_bytes: int,
    processors: int,
    workload: str = "read",
) -> dict:
    """One chaos cell (module-level so ``map_points`` can pickle it)."""
    plan = FaultPlan(seed=seed, specs=(_spec_for(fault, rate),))
    if workload == "write":
        cell = run_faulted_write_benchmark(
            machine,
            plan,
            scale=scale,
            seed=seed,
            page_bytes=page_bytes,
            processors=processors,
        )
    else:
        cell = run_faulted_benchmark(
            machine,
            plan,
            scale=scale,
            selectivity=selectivity,
            seed=seed,
            page_bytes=page_bytes,
            processors=processors,
        )
    # The injector snapshot is keyed "name[site]"; fold it into one
    # recovery total so rows stay narrow.
    recoveries = 0
    for key, value in cell["counters"].items():
        name = key.split("[", 1)[0]
        if name in _RECOVERY_COUNTERS:
            recoveries += value
    cell["recoveries"] = recoveries
    return cell


def run(
    machines: Sequence[str] = ("ring", "direct"),
    rates: Sequence[float] = (0.0, 0.02, 0.05, 0.10),
    fault_classes: Optional[Sequence[str]] = None,
    scale: float = 0.05,
    selectivity: float = 0.3,
    seed: int = 2027,
    page_bytes: int = 2048,
    processors: int = 8,
    workers: Optional[int] = None,
    workloads: Sequence[str] = ("read", "write"),
) -> ExperimentResult:
    """The chaos grid: each machine's fault classes x ``rates``.

    Row fields: ``machine``, ``workload`` (``read`` or ``write``),
    ``fault``, ``rate``, ``elapsed_ms``, ``slowdown`` (vs the same
    machine+workload+fault's lowest-rate cell), ``recoveries``
    (retransmits + retries + refetches + failovers + kills),
    ``all_correct``.  Every cell — including the faulted ones — must
    match its oracle exactly: row-identity for read cells,
    byte-identity of the recovered store for write cells.
    """
    result = ExperimentResult(
        experiment_id="E14 (extension)",
        title="Chaos sweep: correctness under injected faults (requirement 5)",
        parameters={
            "scale": scale,
            "selectivity": selectivity,
            "seed": seed,
            "processors": processors,
            "rates": tuple(rates),
            "workloads": tuple(workloads),
        },
    )
    grid = []
    for machine in machines:
        if machine not in MACHINE_FAULTS:
            raise FaultError(
                f"unknown machine {machine!r}; choose from {sorted(MACHINE_FAULTS)}"
            )
        for workload in workloads:
            faults = (
                WRITE_MACHINE_FAULTS[machine]
                if workload == "write"
                else MACHINE_FAULTS[machine]
            )
            for fault in faults:
                if fault_classes is not None and fault not in fault_classes:
                    continue
                for rate in rates:
                    grid.append((machine, workload, fault, rate))
    points = [
        dict(
            machine=machine,
            fault=fault,
            rate=rate,
            scale=scale,
            selectivity=selectivity,
            seed=seed,
            page_bytes=page_bytes,
            processors=processors,
            workload=workload,
        )
        for machine, workload, fault, rate in grid
    ]
    cells = map_points(_point, points, workers=workers)
    baselines: Dict[Tuple[str, str, str], float] = {}
    for (machine, workload, fault, rate), cell in zip(grid, cells):
        baseline = baselines.setdefault(
            (machine, workload, fault), cell["elapsed_ms"]
        )
        result.rows.append(
            {
                "machine": machine,
                "workload": workload,
                "fault": fault,
                "rate": rate,
                "elapsed_ms": round(cell["elapsed_ms"], 1),
                "slowdown": cell["elapsed_ms"] / baseline if baseline else 1.0,
                "recoveries": cell["recoveries"],
                "all_correct": cell["all_correct"],
            }
        )
    return result


def main() -> None:  # pragma: no cover - manual entry point
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
