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

The join kernel's probe memo is pinned the same way: on the
``figure_3_1`` quick config (a fresh catalog), DIRECT makes 140 equijoin
``join_pages`` calls over 92 distinct ``(inner page, join index)`` pairs,
and builds one probe per pair (92; before the memo, one per call: 140).
"""

from repro.check.identity import QUICK_CONFIGS, render_experiment
from repro.dataflow.cell import Cell
from repro.direct import exec_model
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


def test_direct_builds_one_probe_per_inner_page_and_index(monkeypatch):
    calls = [0]
    pairs = {}  # (id(page), index) -> page: holding the page keeps ids unique
    builds = [0]
    join_pages = exec_model.join_pages
    equijoin_probe = exec_model.equijoin_probe

    def joining(outer_page, inner_page, condition, outer_index, inner_index):
        if condition.is_equijoin:
            calls[0] += 1
            pairs[(id(inner_page), inner_index)] = inner_page
        return join_pages(outer_page, inner_page, condition, outer_index, inner_index)

    def building(page, index):
        builds[0] += 1
        return equijoin_probe(page, index)

    monkeypatch.setattr(exec_model, "join_pages", joining)
    monkeypatch.setattr(exec_model, "equijoin_probe", building)
    render_experiment("figure_3_1")
    assert (calls[0], len(pairs)) == (140, 92)
    assert builds[0] == len(pairs)
