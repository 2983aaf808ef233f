"""Exact work-counter gate over every quick experiment configuration.

Each experiment in :data:`repro.check.identity.QUICK_CONFIGS` runs under
a :class:`repro.obs.MetricsRegistry`, and its whole ``counters`` section
(simulator events, ring messages/bytes/broadcasts, IC dispatches,
scheduler picks, fault counts) must equal its entry in
``work_counters.json`` exactly.  The counters are deterministic, so the
gate has no threshold and reads the same on any host: an experiment that
does more or less work fails, even when its rendered report does not
move.  When a change moves the work on purpose, the failure message ends
with the experiment's current counters as JSON, to paste over its entry.
"""

import itertools
import json
from pathlib import Path

import pytest

from repro import obs
from repro.check.identity import QUICK_CONFIGS, render_experiment
from repro.sim.engine import Simulator

GOLDEN_PATH = Path(__file__).with_name("work_counters.json")


def load_golden():
    """Experiment name -> its committed counters."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def run_counted(name):
    """One experiment's quick render and the counters its run recorded."""
    registry = obs.MetricsRegistry()
    with obs.configured(metrics=registry):
        text = render_experiment(name)
    return text, registry.report()["counters"]


def counter_diff(name, counters):
    """One ``key: committed → now`` line per counter that left the golden."""
    committed = load_golden()[name]
    return [
        f"{key}: {committed.get(key)} → {counters.get(key)}"
        for key in sorted(set(committed) | set(counters))
        if committed.get(key) != counters.get(key)
    ]


def test_golden_has_one_entry_per_quick_config():
    assert sorted(load_golden()) == sorted(QUICK_CONFIGS)


@pytest.mark.parametrize("name", list(QUICK_CONFIGS))
def test_work_counters_match_the_golden(name):
    _, counters = run_counted(name)
    diff = counter_diff(name, counters)
    assert not diff, (
        f"{name}: work counters differ from {GOLDEN_PATH.name} (committed → now):\n  "
        + "\n  ".join(diff)
        + f"\ncurrent counters for {name!r}:\n"
        + json.dumps(counters, indent=2, sort_keys=True)
    )


def test_gate_sees_work_the_render_does_not(monkeypatch):
    # Seeded mutant: every 50th schedule() also queues a no-op.  The
    # report cannot show it; the event counter must.
    baseline, _ = run_counted("figure_3_1")
    schedule = Simulator.schedule
    calls = itertools.count(1)

    def schedule_with_noops(self, delay, action, label=""):
        if next(calls) % 50 == 0:
            schedule(self, 0.0, lambda: None, "noop")
        return schedule(self, delay, action, label)

    monkeypatch.setattr(Simulator, "schedule", schedule_with_noops)
    mutant, counters = run_counted("figure_3_1")
    assert mutant == baseline
    assert counter_diff("figure_3_1", counters) == ["sim.events: 3965.0 → 4044.0"]
