"""The sweep runner: worker resolution, fan-out, deterministic merge.

The headline guarantee under test: ``map_points(..., workers=N)`` for any
N produces byte-identical experiment output *and* byte-identical ambient
metrics to the serial run, including the ``run`` labels and the global
run-id counter's final position.  Workers run under the parent's sanitize
mode and fault plan whatever the process start method.
"""

import multiprocessing
import os

import pytest

from repro import obs
from repro.faults import FaultPlan, FaultSpec
from repro.sim.engine import Simulator
from repro.sweep import runner
from repro.errors import SimulationError
from repro.sweep import effective_workers, map_points

SMALL = dict(scale=0.05, selectivity=0.3)


# -- worker resolution ------------------------------------------------------


def test_effective_workers_defaults_to_serial():
    assert effective_workers(None, points=10) == 1
    assert effective_workers(1, points=10) == 1


def test_effective_workers_clamps_to_points():
    assert effective_workers(8, points=3) == 3


def test_effective_workers_zero_means_cpu_count():
    resolved = effective_workers(0, points=1000)
    assert 1 <= resolved <= 1000


def test_effective_workers_rejects_negative():
    with pytest.raises(SimulationError):
        effective_workers(-1, points=4)


# -- fan-out mechanics ------------------------------------------------------


def _square(x):
    """Module-level so it pickles by reference into worker processes."""
    return x * x


def test_map_points_serial_order():
    points = [dict(x=i) for i in range(5)]
    assert map_points(_square, points) == [0, 1, 4, 9, 16]


def test_map_points_parallel_order():
    points = [dict(x=i) for i in range(5)]
    assert map_points(_square, points, workers=2) == [0, 1, 4, 9, 16]


_INLINE_CALLS = []


def _record_inline(x):
    _INLINE_CALLS.append(x)
    return x


def test_tracing_forces_serial_fallback():
    # A single global trace timeline cannot be split across processes, so
    # an ambient tracer makes map_points run inline (side effects land in
    # this process) even when workers > 1.
    _INLINE_CALLS.clear()
    with obs.configured(tracer=obs.Tracer()):
        out = map_points(_record_inline, [dict(x=1), dict(x=2)], workers=2)
    assert out == [1, 2]
    assert _INLINE_CALLS == [1, 2]


def _bound_modes(point):
    """Which run modes a worker's Simulator binds, and where it ran."""
    sim = Simulator()
    return sim.sanitizer is not None, sim.faults is not None, os.getpid()


def test_spawn_workers_see_the_parent_run_config(monkeypatch):
    # Spawned workers inherit no parent memory, so the config must reach
    # them as arguments (spawn is the default start method off Linux).
    monkeypatch.setattr(
        runner, "_pool_context", lambda: multiprocessing.get_context("spawn")
    )
    plan = FaultPlan(seed=1, specs=(FaultSpec(kind="ring_drop", rate=0.1),))
    with obs.configured(sanitize=True, faults=plan):
        out = map_points(_bound_modes, [dict(point=1), dict(point=2)], workers=2)
    assert [(sanitized, faulted) for sanitized, faulted, _pid in out] == [
        (True, True),
        (True, True),
    ]
    assert all(pid != os.getpid() for _s, _f, pid in out)


# -- deterministic metrics merge -------------------------------------------


def _obs_point(value):
    """A cheap instrumented point: consumes a run id, records everything."""
    metrics = obs.current().metrics
    run = obs.next_run_id()
    metrics.counter("point.calls").add()
    metrics.counter("point.bytes", run=run).add(100 * value)
    tally = metrics.tally("point.value")
    tally.observe(float(value))
    tally.observe(float(value) / 3.0)  # non-trivial float, order-sensitive
    metrics.set_gauge("point.last", value, run=run)
    metrics.series("point.depth", run=run).record(0.0, value)
    return value * 2


def _run_obs_sweep(workers):
    obs.set_next_run_id(1)
    points = [dict(value=v) for v in (3, 1, 4, 1, 5)]
    with obs.configured(metrics=obs.MetricsRegistry()) as config:
        values = map_points(_obs_point, points, workers=workers)
    return values, config.metrics.report(), obs.peek_run_id()


def test_parallel_metrics_merge_matches_serial():
    serial_values, serial_report, serial_next = _run_obs_sweep(workers=1)
    par_values, par_report, par_next = _run_obs_sweep(workers=2)
    assert par_values == serial_values
    assert par_report == serial_report  # counters, gauges, tallies, series
    assert par_next == serial_next == 6  # run-id counter continues identically


def test_merged_run_labels_follow_point_order():
    _, report, _ = _run_obs_sweep(workers=3)
    # Point i consumed run id i+1 regardless of which worker executed it.
    assert report["gauges"] == {
        "point.last{run=1}": 3,
        "point.last{run=2}": 1,
        "point.last{run=3}": 4,
        "point.last{run=4}": 1,
        "point.last{run=5}": 5,
    }


# -- end to end: a real experiment sweep ------------------------------------


def test_figure_3_1_parallel_byte_identical_to_serial():
    from repro.experiments import figure_3_1

    obs.set_next_run_id(1)
    with obs.configured(metrics=obs.MetricsRegistry()) as s_serial:
        serial = figure_3_1.run(processors=(2,), workers=1, **SMALL)
    serial_next = obs.peek_run_id()

    obs.set_next_run_id(1)
    with obs.configured(metrics=obs.MetricsRegistry()) as s_par:
        parallel = figure_3_1.run(processors=(2,), workers=2, **SMALL)
    parallel_next = obs.peek_run_id()

    assert parallel.render() == serial.render()
    assert parallel.rows == serial.rows
    assert s_par.metrics.report() == s_serial.metrics.report()
    assert parallel_next == serial_next


def test_uninstrumented_parallel_matches_serial():
    from repro.experiments import figure_3_1

    serial = figure_3_1.run(processors=(2,), workers=1, **SMALL)
    parallel = figure_3_1.run(processors=(2,), workers=2, **SMALL)
    assert parallel.render() == serial.render()
