"""Parallel sweep execution.

* :func:`map_points` — process-pool fan-out of independent sweep points
  with deterministic ordering and metrics merge (see
  :mod:`repro.sweep.runner`).
"""

from repro.sweep.runner import effective_workers, map_points

__all__ = ["effective_workers", "map_points"]
