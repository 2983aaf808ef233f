"""R002 — simulator packages never read the wall clock.

Simulated time is ``sim.now``; a ``time.time()`` or ``datetime.now()``
inside the engine, machines, or packet paths couples results to the host
machine's speed and breaks run-to-run identity.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.rules.base import (
    SIMULATION_PACKAGES,
    Rule,
    Violation,
    call_target,
    in_packages,
)

_SCOPE = SIMULATION_PACKAGES + ("repro/sweep/",)

_TIME_CALLS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
_DATETIME_CALLS = frozenset({"now", "utcnow", "today"})


class WallClockRule(Rule):
    rule_id = "R002"

    def applies_to(self, module: str) -> bool:
        return in_packages(module, _SCOPE)

    def check(self, tree: ast.AST) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            value, attr = call_target(node)
            if value == "time" and attr in _TIME_CALLS:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"time.{attr}() reads the wall clock inside a simulator "
                    "package; use sim.now (simulated time) instead",
                )
            elif value in ("datetime", "date") and attr in _DATETIME_CALLS:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{value}.{attr}() reads the wall clock inside a simulator "
                    "package; use sim.now (simulated time) instead",
                )


RULE = WallClockRule()
