"""E13 (extension): requirement 5 — surviving disabled processors.

"The database machine design should permit the addition of additional
processors in a simple and straightforward manner and should be able to
survive an arbitrary number of disabled processors."  (Section 4.0)

This experiment runs the benchmark on the fault-tolerant ring machine
while killing a growing fraction of the IP pool mid-run, measuring the
graceful-degradation curve: every run must produce exactly the oracle's
rows; execution time should rise smoothly toward the
surviving-processor count's healthy baseline.

The kills are expressed as a :class:`repro.faults.FaultPlan` (an
``ip_kill`` spec with an explicit schedule) and the sweep cells fan out
over :func:`repro.sweep.map_points`, so ``workers > 1`` parallelizes the
kill-count grid with byte-identical output to the serial run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs
from repro.errors import MachineError
from repro.faults import FaultPlan, FaultSpec
from repro.query import execute
from repro.experiments.common import ExperimentResult
from repro.ring.machine import RingMachine
from repro.sweep import map_points
from repro.workload import benchmark_queries, generate_benchmark_database


def _sweep_point(
    killed: int,
    processors: int,
    kill_at_ms: float,
    scale: float,
    selectivity: float,
    seed: int,
    page_bytes: int,
) -> dict:
    """One degradation cell: the benchmark with ``killed`` IPs fail-stopping.

    Module-level (picklable) so :func:`map_points` can ship it to worker
    processes; the database generation is seeded, so every process
    materializes the identical workload and oracle.
    """
    db = generate_benchmark_database(scale=scale, seed=seed, page_bytes=page_bytes)
    oracle = {
        t.name: execute(t, db.catalog)
        for t in benchmark_queries(db.catalog, db.relation_names, selectivity=selectivity)
    }
    plan = FaultPlan(
        seed=seed,
        specs=(
            FaultSpec(
                kind="ip_kill",
                kills=tuple(
                    (ip_id, kill_at_ms + 50.0 * ip_id) for ip_id in range(1, killed + 1)
                ),
            ),
        ),
    )
    with obs.configured(faults=plan):
        machine = RingMachine(
            db.catalog,
            processors=processors,
            controllers=16,
            page_bytes=page_bytes,
            fault_tolerant=True,
            watchdog_interval_ms=100.0,
        )
    for tree in benchmark_queries(db.catalog, db.relation_names, selectivity=selectivity):
        machine.submit(tree)
    report = machine.run()
    correct = all(
        report.results[name].same_rows_as(expected) for name, expected in oracle.items()
    )
    return {"elapsed_ms": report.elapsed_ms, "all_correct": correct}


def run(
    processors: int = 8,
    kill_counts: Sequence[int] = (0, 2, 4, 6),
    kill_at_ms: float = 500.0,
    scale: float = 0.1,
    selectivity: float = 0.3,
    seed: int = 1979,
    page_bytes: int = 2048,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Degradation sweep: kill ``k`` of ``processors`` IPs at ``kill_at_ms``.

    Row fields: ``killed``, ``survivors``, ``elapsed_ms``, ``slowdown``
    (vs the zero-failure run), ``all_correct``.
    """
    for killed in kill_counts:
        if killed >= processors:
            raise MachineError("must leave at least one survivor")
    result = ExperimentResult(
        experiment_id="E13 (extension)",
        title="Survival of disabled processors (requirement 5)",
        parameters={
            "processors": processors,
            "kill_at_ms": kill_at_ms,
            "scale": scale,
            "selectivity": selectivity,
        },
    )
    points = [
        dict(
            killed=killed,
            processors=processors,
            kill_at_ms=kill_at_ms,
            scale=scale,
            selectivity=selectivity,
            seed=seed,
            page_bytes=page_bytes,
        )
        for killed in kill_counts
    ]
    cells = map_points(_sweep_point, points, workers=workers)
    baseline: Optional[float] = None
    for killed, cell in zip(kill_counts, cells):
        if baseline is None:
            baseline = cell["elapsed_ms"]
        result.rows.append(
            {
                "killed": killed,
                "survivors": processors - killed,
                "elapsed_ms": round(cell["elapsed_ms"], 1),
                "slowdown": cell["elapsed_ms"] / baseline,
                "all_correct": cell["all_correct"],
            }
        )
    return result


def main() -> None:  # pragma: no cover - manual entry point
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
