"""Run configuration: how every simulator built right now behaves.

One frozen :class:`RunConfig` decides a run's mode on all five axes —
the tracer and metrics registry it records into, the span collector
(:mod:`repro.obs.spans`), sanitize mode (:mod:`repro.check.sanitizer`),
and the fault plan (:mod:`repro.faults`).  :func:`configured` makes a
changed copy of the current config ambient for a block; nested blocks
compose field by field.  A :class:`repro.sim.engine.Simulator` reads the
ambient config once, at construction, so a machine built inside a block
keeps its mode when ``run()`` happens after the block exits.

The default config is disabled on every axis, so an uninstrumented run
pays one ``is not None`` (or ``.enabled``) check per hook and records
nothing; behaviour and results are bit-identical either way (hooks only
observe, never schedule).  The sweep runner ships ``sanitize``,
``faults`` and the metrics-capture flag to worker processes explicitly,
so workers see the parent's mode under any start method.

Typical use::

    from repro import obs

    with obs.configured(tracer=obs.Tracer(), metrics=obs.MetricsRegistry()) as config:
        report = run_ring_benchmark(catalog, queries)     # instrumented
    config.tracer.write("run.trace.json")                 # Perfetto-loadable
    print(config.metrics.report(end_time_ms=report.elapsed_ms))
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    metric_key,
    parse_metric_key,
)
from repro.obs.spans import SpanCollector
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.faults.plan import FaultPlan

__all__ = [
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "RunConfig",
    "SpanCollector",
    "Tracer",
    "configured",
    "current",
    "metric_key",
    "next_run_id",
    "parse_metric_key",
    "peek_run_id",
    "set_next_run_id",
]


@dataclass(frozen=True)
class RunConfig:
    """The mode a simulator binds at construction, on every axis."""

    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = NULL_REGISTRY
    #: Armed span collection, or None when off.
    spans: Optional[SpanCollector] = None
    #: Run the simulation sanitizer (and its lock-order witness).
    sanitize: bool = False
    #: Fault plan to inject under, or None; an unarmed plan binds nothing.
    faults: Optional["FaultPlan"] = None


_current = RunConfig()


def current() -> RunConfig:
    """The config a newly built Simulator will bind."""
    return _current


@contextmanager
def configured(**changes) -> Iterator[RunConfig]:
    """Make ``replace(current(), **changes)`` ambient for the block.

    Only simulators *constructed inside* the block pick it up — a
    Simulator binds its config once, at construction.
    """
    global _current
    previous = _current
    _current = replace(previous, **changes)
    try:
        yield _current
    finally:
        _current = previous


#: Monotone ids handed to instrumented Simulators.  A sweep experiment
#: builds many machines under one registry; the id becomes the ``run``
#: label that keeps their time series and per-query gauges apart.  A
#: plain integer (not itertools.count) so the sweep runner can read and
#: re-seed the counter — parallel workers number their runs locally and
#: the merge relabels them to the ids serial execution would have used.
_next_run = 1


def next_run_id() -> int:
    """A fresh ``run`` label value for one instrumented simulator."""
    global _next_run
    rid = _next_run
    _next_run += 1
    return rid


def peek_run_id() -> int:
    """The id the next instrumented simulator would receive (no consume)."""
    return _next_run


def set_next_run_id(value: int) -> None:
    """Re-seed the run-id counter.

    The sweep runner uses this in two places: each worker resets to 1
    before executing a point (so per-point numbering is deterministic
    regardless of worker reuse), and the parent advances past all merged
    runs (so simulators built after a parallel sweep continue exactly
    where a serial sweep would have).
    """
    global _next_run
    _next_run = value
