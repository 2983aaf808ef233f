"""``repro.check`` — the correctness-tooling layer.

Two prongs keep both simulators bit-deterministic and leak-free:

* :mod:`repro.check.lint` — an AST-based static linter with project
  rules R001-R005 and R008-R011 (seeded randomness, wall-clock leaks,
  unordered iteration near event scheduling, float timestamp equality,
  acquire/release pairing, mutable defaults, ambient contexts outside
  ``with``, unsorted report serialization, and unlogged page
  mutations).  ``python -m repro check src`` gates CI.
* :mod:`repro.check.sanitizer` — a runtime sanitizer the simulators can
  run under (``repro run <experiment> --sanitize``) that detects delay
  corruption, same-timestamp order hazards, resource-lease leaks, cache
  frame-accounting bugs, ring packet-conservation violations, and —
  through each sanitizer's :class:`~repro.check.sanitizer.LockOrderWitness`
  — runtime lock-order inversions.  Sanitize mode is switched on through
  the run configuration: ``repro.obs.configured(sanitize=True)``.

Only the sanitizer's entry points are re-exported here; the linter is a
CLI/test tool and is imported on demand.
"""

from __future__ import annotations

from repro.check.sanitizer import LockOrderWitness, Sanitizer

__all__ = ["LockOrderWitness", "Sanitizer"]
