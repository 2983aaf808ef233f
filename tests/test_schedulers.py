"""The tie-batched heap behind the simulator's future-event list.

The unit tests pin the structure's batch contract; the property test
drives the engine through randomized workloads (ties, cancellations,
mid-run scheduling) and requires the fire sequence to be exactly the
``(time, sequence)`` order of the events that were not cancelled.
"""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.schedulers import TieBatchedHeap


# ------------------------------------------------------------ structure units


class _Tag:
    """Stand-in event: the structure stores, never inspects."""

    def __init__(self, n):
        self.n = n


def test_batches_come_out_in_time_order_with_fifo_ties():
    fel = TieBatchedHeap()
    fel.push(2.0, _Tag("b1"))
    fel.push(1.0, _Tag("a1"))
    fel.push(2.0, _Tag("b2"))
    assert fel.peek_time() == 1.0
    when, batch = fel.pop_batch()
    assert when == 1.0 and [e.n for e in batch] == ["a1"]
    when, batch = fel.pop_batch()
    assert when == 2.0 and [e.n for e in batch] == ["b1", "b2"]
    assert fel.peek_time() is None


def test_len_counts_distinct_timestamps():
    fel = TieBatchedHeap()
    for when in (1.0, 1.0, 2.0, 3.0, 3.0, 3.0):
        fel.push(when, _Tag(when))
    assert len(fel) == 3


# ------------------------------------------------------------ property tests


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 1979])
def test_fire_sequence_is_time_then_sequence_order(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    scheduled = []
    cancellable = []

    def schedule(delay, tag):
        event = sim.schedule(delay, lambda: fire(event), label=tag)
        scheduled.append(event)
        cancellable.append(event)

    def fire(event):
        fired.append(event)
        # Mid-run scheduling, with deliberate timestamp ties (quantized
        # delays) and occasional same-time (delay 0) events.
        if rng.random() < 0.4:
            schedule(rng.choice([0.0, 0.5, 1.0, 1.0, 2.5]), f"{event.label}.{len(fired)}")
        if cancellable and rng.random() < 0.2:
            cancellable.pop(rng.randrange(len(cancellable))).cancel()

    for i in range(60):
        schedule(rng.choice([0.0, 0.25, 1.0, 1.0, 3.0, 7.5]), f"e{i}")
    sim.run(max_events=50_000)

    # Drained: every event fired exactly once or was cancelled first, and
    # the fired ones came out in the engine's (time, sequence) order.
    assert all(e.fired or e.cancelled for e in scheduled)
    assert fired == sorted(
        (e for e in scheduled if e.fired), key=lambda e: (e.time, e.sequence)
    )
    assert sim.events_processed == len(fired)


def test_until_horizon_resumes_in_order():
    # Horizon stops mid-stream must resume where they left off.
    sim = Simulator()
    trace = []
    for i, t in enumerate((1.0, 4.0, 4.0, 9.0)):
        sim.schedule(t, lambda i=i: trace.append((sim.now, i)))
    assert sim.run(until=4.0) == 4.0
    assert trace == [(1.0, 0), (4.0, 1), (4.0, 2)]
    sim.run()
    assert trace[-1] == (9.0, 3)
