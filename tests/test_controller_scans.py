"""Exact controller-scan counts: the readiness gate.

The data-flow machine visits only the cells a state transition touched,
and DIRECT's MC scans only live instructions.  Either controller falling
back to a full rescan multiplies these counts, so they are pinned
exactly.  The counters are wrappers installed by this test; ``src/``
carries no scan instrument.

Counts before event-driven readiness (full scans) and after:

* ``Cell.ready_firings`` calls on the ``dataflow`` quick config:
  74,894 -> 3,032 (24.7x fewer);
* ``Instruction``/``JoinInstruction.has_dispatchable`` calls on the
  ``serving`` quick config run on DIRECT (the config itself serves the
  ring machine, which has no such scan): 158,233 -> 32,683 (4.8x fewer;
  the gap grows with session length, since the old list kept every
  instruction ever submitted).
"""

from repro.check.identity import QUICK_CONFIGS, render_experiment
from repro.dataflow.cell import Cell
from repro.direct.instructions import Instruction, JoinInstruction
from repro.experiments import serving


def count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_dataflow_ready_scans(monkeypatch):
    calls = [0]
    count_calls(monkeypatch, Cell, "ready_firings", calls)
    render_experiment("dataflow")
    assert calls[0] == 3_032


def test_direct_dispatch_scans_when_serving(monkeypatch):
    calls = [0]
    count_calls(monkeypatch, Instruction, "has_dispatchable", calls)
    count_calls(monkeypatch, JoinInstruction, "has_dispatchable", calls)
    _module, kwargs = QUICK_CONFIGS["serving"]
    serving.run(**dict(kwargs, machines=("direct",)))
    assert calls[0] == 32_683
