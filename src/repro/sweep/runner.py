"""Process-pool fan-out for embarrassingly parallel sweep points.

The headline experiments are sweeps: dozens of *independent* simulator
builds (queries x granularity x processor counts for Figure 3.1, IP
counts for the Section 4 ring sizing, three machine variants for the
ring-vs-DIRECT comparison).  Each point is deterministic and shares no
state with its neighbours, so they parallelize perfectly across worker
processes — the paper's own "run as fast as the hardware allows" applied
to the reproduction harness itself.

Contract: an experiment declares a **module-level point function** (so it
pickles by reference) taking only picklable keyword arguments and
returning a picklable value (plain dicts of numbers, in practice).
:func:`map_points` executes the points — serially by default, or across
``workers`` processes — and returns per-point results **in point order**,
so parallel output is byte-identical to serial output.

Run configuration: a sweep runs under the ambient :class:`repro.obs.RunConfig`
(``repro metrics figure_3_1 --workers 8``, ``repro run ... --sanitize``).
Each point ships the picklable part of it — sanitize mode, the fault
plan, and whether to capture metrics — to its worker explicitly, so
workers run in the parent's mode under any start method (fork or
spawn).  Worker processes cannot record into the parent's registry, so
each worker captures a fresh local registry per point and ships a
full-fidelity dump back; the parent merges the dumps in point order,
relabeling each worker's locally numbered ``run`` ids to exactly the ids
serial execution would have assigned, and advances the global run-id
counter past them.  Tracing and span collection (single global
timelines) fall back to serial execution.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan


def effective_workers(workers: Optional[int], points: int) -> int:
    """Resolve a ``--workers`` request against the host and the sweep size.

    ``None`` and ``1`` mean serial; ``0`` means one worker per CPU; any
    other positive value is clamped to the number of points.  Negative
    values are rejected.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, points))


def _pool_context():
    """Prefer fork (cheap, Linux) and fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_point(
    fn: Callable,
    kwargs: Dict,
    capture_metrics: bool,
    sanitize: bool,
    faults: Optional[FaultPlan],
):
    """Execute one sweep point inside a worker process.

    Runs under the parent's sanitize mode and fault plan with a fresh
    metrics registry (or none, mirroring the parent's request), and
    resets the run-id counter to 1, so a point's metric labels depend
    only on the point itself — never on which worker ran it or what ran
    there before.  Returns ``(value, registry dump or None, run ids
    consumed)``.
    """
    obs.set_next_run_id(1)
    # capture_tally_samples: the parent replays raw tally observations in
    # point order, keeping merged statistics bit-identical to a serial run.
    metrics = (
        obs.MetricsRegistry(capture_tally_samples=True)
        if capture_metrics
        else obs.NULL_REGISTRY
    )
    with obs.configured(metrics=metrics, sanitize=sanitize, faults=faults):
        value = fn(**kwargs)
    consumed = obs.peek_run_id() - 1
    dump = metrics.dump() if capture_metrics else None
    return value, dump, consumed


def map_points(
    fn: Callable,
    points: Sequence[Dict],
    workers: Optional[int] = None,
) -> List:
    """Run ``fn(**point)`` for every point; results come back in point order.

    Serial (``workers`` in (None, 1), a single point, an armed tracer,
    or an armed span collector) calls ``fn`` inline under the ambient
    run configuration — exactly the pre-sweep behaviour.  Parallel fans
    the points out over a process pool, passing each the config's
    sanitize mode and fault plan, and deterministically merges each
    worker's metrics dump back into the ambient registry (see the module
    docstring), so the two modes are interchangeable.  Tracing and span
    collection are single global timelines a worker process cannot write
    into, hence the fallback.
    """
    points = list(points)
    config = obs.current()
    n_workers = effective_workers(workers, len(points))
    if (
        n_workers <= 1
        or len(points) <= 1
        or config.tracer.enabled
        or config.spans is not None
    ):
        return [fn(**point) for point in points]

    capture_metrics = config.metrics.enabled
    with ProcessPoolExecutor(
        max_workers=n_workers, mp_context=_pool_context()
    ) as pool:
        futures = [
            pool.submit(
                _run_point, fn, point, capture_metrics, config.sanitize, config.faults
            )
            for point in points
        ]
        outcomes = [future.result() for future in futures]

    values = []
    offset = obs.peek_run_id() - 1 if capture_metrics else 0
    for value, dump, consumed in outcomes:
        if capture_metrics and dump is not None:
            config.metrics.merge(dump, run_offset=offset)
            offset += consumed
        values.append(value)
    if capture_metrics:
        obs.set_next_run_id(offset + 1)
    return values
