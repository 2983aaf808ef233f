"""Deterministic fault injection for the machine simulators.

Public surface:

* :class:`FaultSpec` / :class:`FaultPlan` — pure-data description of
  which fault classes are armed, where, and at what rate (seeded).
* :class:`FaultInjector` — the per-simulator oracle that turns a plan
  into simulation-time strikes and tallies every recovery action.
* Arming is one field of the run configuration:
  ``repro.obs.configured(faults=plan)`` — simulators constructed inside
  the block pick the plan up automatically.

See :mod:`repro.faults.plan` for the fault-class catalog and the
determinism contract (same seed + same plan = byte-identical run).
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec

__all__ = ["FAULT_KINDS", "FaultInjector", "FaultPlan", "FaultSpec"]
