"""Benchmarks of the sweep harness itself.

Times the serial and parallel (2-worker) executions of a small Figure 3.1
grid, plus the bare event-loop throughput of a no-op schedule/fire loop.
On a multi-core host the parallel run should approach the serial time
divided by the worker count; on a single-CPU host it mostly measures
fan-out overhead, so the benchmarks assert correctness (identical
output), not speedup.
"""

from benchmarks.conftest import BENCH_SELECTIVITY, run_once

from repro.experiments import figure_3_1
from repro.sim.engine import Simulator

#: Small grid: 2 processor counts x 2 granularities = 4 sweep points.
SWEEP_KWARGS = dict(processors=(2, 4), scale=0.05, selectivity=BENCH_SELECTIVITY)


def test_bench_sweep_serial(benchmark):
    result = run_once(benchmark, lambda: figure_3_1.run(**SWEEP_KWARGS, workers=1))
    assert len(result.rows) == 2


def test_bench_sweep_parallel_two_workers(benchmark):
    serial = figure_3_1.run(**SWEEP_KWARGS, workers=1)
    result = run_once(benchmark, lambda: figure_3_1.run(**SWEEP_KWARGS, workers=2))
    assert result.render() == serial.render()


def test_bench_sim_core_event_loop(benchmark):
    events = 100_000

    def spin():
        sim = Simulator()
        for i in range(events):
            sim.schedule(float(i % 97), lambda: None)
        sim.run()
        return sim

    sim = run_once(benchmark, spin)
    assert sim.events_processed == events
