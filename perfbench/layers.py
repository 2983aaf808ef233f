"""Per-layer metrics, and the map of which workload exercises which layer.

Each layer's numbers should move one end-to-end metric on the workloads
listed under ``exercised``; on the others (``bypassed``) the prediction
is no change, and for the layers below it is exactly zero.  The traced
run checks both sides of the map, so a wrapper that no longer reaches
its layer (a pre-bound reference the patch missed) fails the run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

E1, E6, SDR, RWB = "e1_direct_batch", "e6_dataflow_batch", "serve_direct_read", "ring_write_batch"
ALL = (E1, E6, SDR, RWB)

#: (name, unit, better) for every per-layer metric, grouped by layer.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("sim.resource_submits", "count", "lower"),
    ("sim.elapsed_ms", "ms", "lower"),
    ("direct.picks", "count", "lower"),
    ("direct.dispatch_scans", "count", "lower"),
    ("direct.scans_per_pick", "ratio", "lower"),
    ("direct.control_self_s", "s", "lower"),
    ("direct.exec.join_pages", "count", "lower"),
    ("direct.exec.self_s", "s", "lower"),
    ("direct.cache.reads", "count", "lower"),
    ("direct.cache.hit_ratio", "ratio", "higher"),
    ("direct.cache.disk_bytes", "bytes", "lower"),
    ("direct.cache.self_s", "s", "lower"),
    ("dataflow.firings", "count", "lower"),
    ("dataflow.ready_scans", "count", "lower"),
    ("dataflow.scans_per_firing", "ratio", "lower"),
    ("dataflow.control_self_s", "s", "lower"),
    ("dataflow.exec_self_s", "s", "lower"),
    ("dataflow.arbitration_bytes", "bytes", "lower"),
    ("ring.messages", "count", "lower"),
    ("ring.bytes", "bytes", "lower"),
    ("ring.broadcasts", "count", "lower"),
    ("ring.self_s", "s", "lower"),
    ("ring.ip_grants_per_request", "ratio", "higher"),
    ("ring.locks.requests", "count", "lower"),
    ("ring.locks.grant_ratio", "ratio", "higher"),
    ("ring.locks.upgrade_refusals", "count", "lower"),
    ("relational.validate_row", "count", "lower"),
    ("relational.pack", "count", "lower"),
    ("relational.predicate_evals", "count", "lower"),
    ("relational.self_s", "s", "lower"),
    ("recovery.wal_records", "count", "lower"),
    ("recovery.wal_bytes", "bytes", "lower"),
    ("recovery.forces", "count", "lower"),
    ("recovery.checkpoints", "count", "lower"),
    ("recovery.commits", "count", "higher"),
    ("recovery.aborts", "count", "lower"),
    ("recovery.commit_ratio", "ratio", "higher"),
    ("recovery.wal_bytes_per_commit", "bytes", "lower"),
    ("recovery.self_s", "s", "lower"),
    ("serve.arrived", "count", "higher"),
    ("serve.completed", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.queued", "count", "lower"),
    ("serve.sim_p50_ms", "ms", "lower"),
    ("serve.sim_p99_ms", "ms", "lower"),
    ("serve.admission_self_s", "s", "lower"),
    ("workload.generate_s", "s", "lower"),
    ("workload.db_bytes", "bytes", "lower"),
    ("workload.queries", "count", "higher"),
    ("e1.relation_over_page", "ratio", "higher"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
]

#: Metrics that are exact counts or simulated outputs: identical on every
#: traced round of one seed, on any host.  The rest are host timings.
EXACT = frozenset(
    name for name, _, _ in PER_LAYER
    if not name.endswith("_s")
    and name not in ("sim.host_us_per_event", "obs.trace_overhead_frac")
)


def _group(prefix: str) -> List[str]:
    return [name for name, _, _ in PER_LAYER if name.startswith(prefix)]


DIRECT_CONTROL = ["direct.picks", "direct.dispatch_scans", "direct.scans_per_pick",
                  "direct.control_self_s"]
DIRECT_EXEC = _group("direct.exec.")
DIRECT_CACHE = _group("direct.cache.")
DATAFLOW = _group("dataflow.")
RING = _group("ring.")
RECOVERY = _group("recovery.")
SERVE = _group("serve.")
SIM = _group("sim.")
WORKLOAD = _group("workload.")
RELATIONAL_KERNEL = ["relational.predicate_evals", "relational.self_s"]
RELATIONAL_ROWS = ["relational.validate_row", "relational.pack"]

#: Layer map: the end-to-end metric each layer moves, where, and where
#: the prediction is no change.  ``exercised`` metrics must read non-zero
#: on those workloads; ``zero_on`` metrics must read exactly zero there.
LAYER_MAP: List[Dict[str, object]] = [
    dict(layer="sim", metrics=SIM, moves="wall_s, host_qps",
         most=RWB, least=SDR, exercised=ALL, zero_on=()),
    dict(layer="direct (control)", metrics=DIRECT_CONTROL, moves="wall_s",
         most=SDR, least=E1, exercised=(E1, SDR), zero_on=(E6, RWB)),
    # exec_model's join kernel is shared with the data-flow cells and
    # the ring's IPs; the ring stream has no joins.
    dict(layer="direct.exec_model", metrics=DIRECT_EXEC, moves="wall_s",
         most=E1, least=E6, exercised=(E1, E6), zero_on=()),
    # DiskCache is shared with the ring machine; the data-flow machine
    # keeps its data memory-resident.
    dict(layer="direct.cache", metrics=DIRECT_CACHE, moves="wall_s",
         most=E1, least=SDR, exercised=(E1, SDR, RWB), zero_on=(E6,)),
    dict(layer="dataflow", metrics=DATAFLOW, moves="wall_s",
         most=E6, least=E6, exercised=(E6,), zero_on=(E1, SDR, RWB)),
    dict(layer="ring, ring.concurrency", metrics=RING, moves="wall_s",
         most=RWB, least=RWB, exercised=(RWB,), zero_on=(E1, E6, SDR)),
    dict(layer="relational (kernels)", metrics=RELATIONAL_KERNEL, moves="wall_s",
         most=RWB, least=E1, exercised=ALL, zero_on=()),
    dict(layer="relational (row packing)", metrics=RELATIONAL_ROWS, moves="wall_s",
         most=RWB, least=RWB, exercised=(RWB,), zero_on=()),
    dict(layer="recovery", metrics=RECOVERY, moves="wall_s",
         most=RWB, least=RWB, exercised=(RWB,), zero_on=(E1, E6, SDR)),
    dict(layer="serve", metrics=[m for m in SERVE if m not in ("serve.shed", "serve.queued")],
         moves="wall_s, host_qps", most=SDR, least=SDR, exercised=(SDR,),
         zero_on=(E1, E6, RWB)),
    dict(layer="workload", metrics=WORKLOAD, moves="setup_s",
         most=E1, least=SDR, exercised=ALL, zero_on=()),
    dict(layer="e1 outputs", metrics=["e1.relation_over_page"], moves="(simulated output)",
         most=E1, least=E1, exercised=(E1,), zero_on=(E6, SDR, RWB)),
    dict(layer="obs", metrics=["obs.trace_overhead_frac"], moves="(tracing cost)",
         most=SDR, least=E1, exercised=ALL, zero_on=()),
]


def self_check(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Problems with ``metrics`` against the layer map for ``workload``."""
    problems = []
    for entry in LAYER_MAP:
        for name in entry["metrics"]:
            value = metrics[name]
            if workload in entry["exercised"] and not value > 0:
                problems.append(f"{name} reads {value} on {workload}, which exercises it")
            if workload in entry["zero_on"] and value != 0:
                problems.append(f"{name} reads {value} on {workload}, which bypasses it")
    if workload == SDR and metrics["direct.cache.disk_bytes"] > metrics["workload.db_bytes"]:
        # The database fits the cache: each page comes off disk at most once.
        problems.append(
            f"direct.cache.disk_bytes {metrics['direct.cache.disk_bytes']} on {SDR} exceeds "
            f"the database ({metrics['workload.db_bytes']} bytes), which should fit the cache"
        )
    return problems


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    tracer,
    self_s: Dict[str, float],
    outputs: Dict[str, float],
    *,
    untraced_wall_s: float,
    traced_wall_s: float,
    setup_samples: List[float],
    db_bytes: int,
    queries: int,
) -> Dict[str, float]:
    """Every per-layer metric from one traced round.

    ``obs.trace_overhead_frac`` here is this round's raw ratio; the
    runner replaces it with the ratio of host-speed-normalized medians.
    """
    c = tracer.counts
    meters = {id(cache.meter): cache.meter for cache in tracer.caches}
    m: Dict[str, float] = {
        "sim.events": c["sim.events"],
        "sim.self_s": self_s["sim"],
        "sim.host_us_per_event": _ratio(untraced_wall_s * 1e6, c["sim.events"]),
        "sim.resource_submits": c["sim.resource_submits"],
        "sim.elapsed_ms": outputs["sim.elapsed_ms"],
        "direct.picks": c["direct.picks"],
        "direct.dispatch_scans": c["direct.dispatch_scans"],
        "direct.scans_per_pick": _ratio(c["direct.dispatch_scans"], c["direct.picks"]),
        "direct.control_self_s": self_s["direct.control"],
        "direct.exec.join_pages": c["direct.exec.join_pages"],
        "direct.exec.self_s": self_s["direct.exec"],
        "direct.cache.reads": c["direct.cache.reads"],
        "direct.cache.hit_ratio": _ratio(c["direct.cache.hits"], c["direct.cache.reads"]),
        "direct.cache.disk_bytes": sum(meter.disk_bytes for meter in meters.values()),
        "direct.cache.self_s": self_s["direct.cache"],
        "dataflow.firings": c["dataflow.firings"],
        "dataflow.ready_scans": c["dataflow.ready_scans"],
        "dataflow.scans_per_firing": _ratio(c["dataflow.ready_scans"], c["dataflow.firings"]),
        "dataflow.control_self_s": self_s["dataflow.control"],
        "dataflow.exec_self_s": self_s["dataflow.exec"],
        "dataflow.arbitration_bytes": c["dataflow.arbitration_bytes"],
        "ring.messages": c["ring.messages"],
        "ring.bytes": c["ring.bytes"],
        "ring.broadcasts": c["ring.broadcasts"],
        "ring.self_s": self_s["ring"],
        "ring.ip_grants_per_request": _ratio(c["ring.ip_grants"], c["ring.ip_requests"]),
        "ring.locks.requests": c["ring.locks.requests"],
        "ring.locks.grant_ratio": _ratio(c["ring.locks.granted"], c["ring.locks.requests"]),
        "ring.locks.upgrade_refusals": c["ring.locks.upgrade_refusals"],
        "relational.validate_row": c["relational.validate_row"],
        "relational.pack": c["relational.pack"],
        "relational.predicate_evals": c["relational.predicate_evals"],
        "relational.self_s": self_s["relational"],
        "recovery.wal_records": c["recovery.wal_records"],
        "recovery.wal_bytes": c["recovery.wal_bytes"],
        "recovery.forces": c["recovery.forces"],
        "recovery.checkpoints": c["recovery.checkpoints"],
        "recovery.commits": c["recovery.commits"],
        "recovery.aborts": c["recovery.aborts"],
        "recovery.commit_ratio": _ratio(
            c["recovery.commits"], c["recovery.commits"] + c["recovery.aborts"]
        ),
        "recovery.wal_bytes_per_commit": _ratio(c["recovery.wal_bytes"], c["recovery.commits"]),
        "recovery.self_s": self_s["recovery"],
        "serve.admission_self_s": self_s["serve"],
        "workload.generate_s": statistics.median(setup_samples),
        "workload.db_bytes": db_bytes,
        "workload.queries": queries,
        "e1.relation_over_page": outputs.get("e1.relation_over_page", 0.0),
        "obs.trace_overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
    }
    for name in ("serve.arrived", "serve.completed", "serve.shed", "serve.queued",
                 "serve.sim_p50_ms", "serve.sim_p99_ms"):
        m[name] = outputs.get(name, 0)
    return {name: m[name] for name, _, _ in PER_LAYER}
