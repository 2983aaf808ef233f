"""The four benchmark workloads: inputs from a seed, timed passes, checks.

Each workload has three parts, kept apart so the runner can time them
separately:

* ``setup(seed)`` builds the inputs through the public ``repro.workload``
  (and, for serving, ``repro.serve``) calls; the runner times it as
  ``setup_s``.
* ``run(inputs, part)`` is one timed pass of one part of the workload: one
  seeded instance (database, session or stream), and for E1 one
  granularity.  Host time spent inside it on set-up (``serve()`` builds
  its own database) is reported back so the runner can move it out of
  ``wall_s``.
* ``verify(inputs, result)`` checks one part's first pass against an
  oracle, right after it ran and outside both timings, so no pass has to
  be kept; later passes of the part must reproduce its fingerprint.

Everything runs serially in this process: no sweep workers, no threads.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.dataflow.machine import run_dataflow
from repro.direct import scheduler
from repro.direct.machine import run_benchmark
from repro.query.interpreter import execute
from repro.recovery.harness import oracle_bytes
from repro.recovery.restart import recover
from repro.recovery.store import StableStore
from repro.recovery.txn import TransactionManager
from repro.ring.machine import RingMachine
from repro.serve import ServeConfig, make_arrivals, serve
from repro.sim.random import RandomStreams
from repro.workload import benchmark_queries, generate_benchmark_database
from repro.workload.updates import mixed_update_workload


def _digest(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def relation_digest(relation) -> str:
    """Order-free digest of a relation's rows (a multiset)."""
    rows = sorted(relation.row_multiset().items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """What one timed pass of one part produced."""

    part: str
    queries: int
    #: Exact simulated outputs (counts, simulated ms); identical per seed.
    outputs: Dict[str, float]
    #: The simulated report (a machine report, or the serve SLO dict).
    report: Any
    #: Host seconds spent inside the pass on set-up work.
    setup_s: float = 0.0
    #: Whatever else the workload's check needs from this pass.
    extra: Any = None

    def fingerprint(self) -> Dict[str, str]:
        """Digest of the report plus one per result relation.

        Computed after the timed region; every later pass of the same part
        must reproduce the first pass's fingerprint exactly.
        """
        report = self.report
        if isinstance(report, dict):
            return {"report": _digest(report)}
        fields = {key: value for key, value in vars(report).items() if key != "results"}
        results = {name: relation_digest(rel) for name, rel in sorted(report.results.items())}
        fields["results"] = results
        out = {"report": _digest(fields)}
        out.update(results)
        return out


@dataclass
class Check:
    """Outcome of checking one pass: queries attempted and failed."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Batch workloads: the paper's ten-query mix, all submitted at t=0.


def instance_seed(seed: int, index: int) -> int:
    """Seed of instance ``index`` of a run seeded with ``seed``."""
    return seed * 1000 + index


@dataclass
class BatchInputs:
    dbs: List[Any]
    selectivity: float
    #: Interpreter result digests per database index, filled on first use.
    oracle: Dict[int, Dict[str, str]] = field(default_factory=dict)

    @property
    def db_bytes(self) -> int:
        return self.dbs[0].total_bytes


class BatchWorkload:
    """Shared set-up and checks of the two batch workloads.

    One run covers ``instances`` databases, each generated from its own
    seed derived from the run's seed, so the host time of a run averages
    over several data sets instead of resting on one draw.
    """

    name = ""
    why = ""
    granularities = ("page",)

    def __init__(self, instances: int, scale: float, page_bytes: int, processors: int,
                 selectivity: float):
        self.load = (
            f"batch: the ten-query mix on each of {instances} databases (scale {scale:g}), "
            f"submitted at t=0 by one client, {processors} processors, granularity "
            f"{' and '.join(self.granularities)} timed separately; serial, one process"
        )
        self.instances = instances
        self.scale = scale
        self.page_bytes = page_bytes
        self.processors = processors
        self.selectivity = selectivity
        #: Parts are ``<instance>/<granularity>``, timed one at a time.
        self.parts = tuple(
            f"{i}/{g}" for i in range(instances) for g in self.granularities
        )

    def setup(self, seed: int) -> BatchInputs:
        dbs = [
            generate_benchmark_database(
                scale=self.scale, seed=instance_seed(seed, i), page_bytes=self.page_bytes
            )
            for i in range(self.instances)
        ]
        inputs = BatchInputs(dbs=dbs, selectivity=self.selectivity)
        for db in dbs:
            self.fresh_queries(db)
        return inputs

    def fresh_queries(self, db, clock: Optional[List[float]] = None):
        """New query trees for one machine run (trees carry run state).

        ``clock``, when given, collects the host seconds this took, which
        the pass moves from ``wall_s`` to set-up.
        """
        start = time.perf_counter()
        trees = benchmark_queries(db.catalog, db.relation_names, selectivity=self.selectivity)
        if clock is not None:
            clock.append(time.perf_counter() - start)
        return trees

    def _split(self, inputs: BatchInputs, part: str):
        index, granularity = part.split("/")
        return inputs.dbs[int(index)], granularity

    def verify(self, inputs: BatchInputs, result: PassResult) -> Check:
        """Every query's result equals the interpreter's on the same catalog.

        The interpreter (hash join) runs once per database; results are
        compared as row multisets through their digests.
        """
        index = int(result.part.split("/")[0])
        if index not in inputs.oracle:
            db = inputs.dbs[index]
            inputs.oracle[index] = {
                tree.name: relation_digest(execute(tree, db.catalog, join_algorithm="hash"))
                for tree in self.fresh_queries(db)
            }
        expected = inputs.oracle[index]
        fingerprint = result.fingerprint()
        check = Check(attempted=len(expected))
        for query, digest in expected.items():
            if fingerprint.get(query) != digest:
                check.failed += 1
                check.problems.append(
                    f"{result.part} {query}: result differs from the interpreter"
                )
        return check


class DirectBatch(BatchWorkload):
    name = "e1_direct_batch"
    why = (
        "the paper's ten-query mix at t=0 on DIRECT, page and relation "
        "granularity, database larger than the cache: exec model and cache"
    )
    granularities = (scheduler.PAGE.key, scheduler.RELATION.key)

    def run(self, inputs: BatchInputs, part: str) -> PassResult:
        db, granularity = self._split(inputs, part)
        setup: List[float] = []
        report = run_benchmark(
            db.catalog,
            self.fresh_queries(db, setup),
            processors=self.processors,
            granularity=scheduler.granularity(granularity),
            page_bytes=self.page_bytes,
            cache_bytes=2 * 1024 * 1024,
        )
        outputs = {
            "sim.events": report.events_processed,
            "sim.elapsed_ms": report.elapsed_ms,
            f"e1.{granularity}.elapsed_ms": report.elapsed_ms,
        }
        return PassResult(part=part, queries=len(report.results), outputs=outputs,
                          report=report, setup_s=sum(setup))


class DataflowBatch(BatchWorkload):
    name = "e6_dataflow_batch"
    why = (
        "the same mix on the MIT-model data-flow machine at page granularity, "
        "memory-resident: only workload of the cell firing-rule scans"
    )

    def run(self, inputs: BatchInputs, part: str) -> PassResult:
        db, _ = self._split(inputs, part)
        setup: List[float] = []
        report = run_dataflow(
            db.catalog,
            self.fresh_queries(db, setup),
            processors=self.processors,
            granularity="page",
            page_bytes=self.page_bytes,
        )
        outputs = {
            "sim.events": report.events_processed,
            "sim.elapsed_ms": report.elapsed_ms,
            "e6.firings": report.firings,
            "e6.arbitration_bytes": report.arbitration_bytes,
        }
        return PassResult(part=part, queries=len(report.results), outputs=outputs,
                          report=report, setup_s=sum(setup))


# ---------------------------------------------------------------------------
# Serving workloads: open-loop Poisson arrivals from repro.serve.


class _SetupClock:
    """Times the set-up calls ``serve()`` makes, where it looks them up.

    ``serve()`` builds its database and arrival schedule itself; this
    patches ``generate_benchmark_database`` and ``make_arrivals`` in
    ``repro.serve.service`` for the length of one call and sums the host
    time they take, so the pass can hand it to set-up.
    """

    def __init__(self):
        self.seconds = 0.0

    def timed(self, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        return call

    def __enter__(self) -> "_SetupClock":
        import repro.serve.service as service

        self._service = service
        self._originals = (service.generate_benchmark_database, service.make_arrivals)
        service.generate_benchmark_database = self.timed(self._originals[0])

        def arrivals(*args, **kwargs):
            process = self._originals[1](*args, **kwargs)
            process.times = self.timed(process.times)
            return process

        service.make_arrivals = arrivals
        return self

    def __exit__(self, *exc) -> None:
        service = self._service
        service.generate_benchmark_database, service.make_arrivals = self._originals


@dataclass
class ServeInputs:
    configs: List[ServeConfig]
    db_bytes: int


class ServeWorkload:
    """``sessions`` independent ``serve()`` sessions per round.

    Each session has its own seed derived from the run's seed (database,
    arrival schedule and query stream), so a run's host time averages
    over several arrival draws instead of resting on one.
    """

    name = ""
    why = ""

    def __init__(self, sessions: int, **config):
        self.config = config
        self.parts = tuple(str(i) for i in range(sessions))
        self.load = (
            f"open loop: {sessions} sessions of Poisson arrivals at {config['rate_qps']:g} "
            f"queries per simulated second for {config['duration_ms'] / 1000:g} simulated s "
            f"on the {config['machine']} machine, scale {config['scale']:g}, scheduled in "
            "simulated time; serial, one process"
        )

    def setup(self, seed: int) -> ServeInputs:
        """What ``serve()`` builds before its loop: database and arrivals.

        ``serve()`` rebuilds both inside each pass (timed there and moved
        to set-up); this standalone build gives ``setup_s`` its samples.
        """
        configs = []
        for i in range(len(self.parts)):
            config = ServeConfig(seed=instance_seed(seed, i), **self.config)
            config.validate()
            db = generate_benchmark_database(
                scale=config.scale, seed=config.seed,
                page_bytes=config.page_bytes, b_domain=config.b_domain,
            )
            make_arrivals(config.arrivals, config.rate_qps).times(
                config.duration_ms, RandomStreams(config.seed).stream("serve.arrivals")
            )
            configs.append(config)
        return ServeInputs(configs=configs, db_bytes=db.total_bytes)

    def run(self, inputs: ServeInputs, part: str) -> PassResult:
        with _SetupClock() as clock:
            report = serve(inputs.configs[int(part)])
        admission = report["admission"]
        latency = report["latency"]
        outputs = {
            "sim.events": report["events_processed"],
            "sim.elapsed_ms": report["elapsed_ms"],
            "serve.arrived": admission["arrived"],
            "serve.completed": report["completed"],
            "serve.shed": admission["shed"],
            "serve.queued": admission["queued"],
            "serve.sim_p50_ms": latency["p50_ms"],
            "serve.sim_p99_ms": latency["p99_ms"],
        }
        return PassResult(part=part, queries=report["completed"], outputs=outputs,
                          report=report, setup_s=clock.seconds)

    def verify(self, inputs: ServeInputs, result: PassResult) -> Check:
        """``arrived == completed + shed``; a shed or missing query fails."""
        out = result.outputs
        shed = out["serve.shed"]
        missing = out["serve.arrived"] - out["serve.completed"] - shed
        check = Check(attempted=out["serve.arrived"], failed=shed + abs(missing))
        if missing:
            check.problems.append(
                f"session {result.part}: arrived != completed + shed ({missing} off)"
            )
        if shed:
            check.problems.append(f"session {result.part}: {shed} queries shed")
        return check


class ServeDirectRead(ServeWorkload):
    name = "serve_direct_read"
    why = (
        "open-loop Poisson reads on DIRECT below the knee, database fits the "
        "cache: the pick_instruction/has_dispatchable scan does the work"
    )


# ---------------------------------------------------------------------------
# Ring write batch: reads and write transactions at t=0, WAL attached.


@dataclass
class RingInputs:
    seeds: List[int]
    db_bytes: int


class RingWriteBatch:
    """A mixed read/write stream on the ring machine with durable commits.

    Every query of ``instances`` seeded streams is submitted at t=0; the
    MC lock manager serializes conflicting writers and the transaction
    manager logs, forces and checkpoints.  The check replays the
    committed writes, in commit order, through the interpreter on a
    fresh database and compares the recovered stable store byte for byte.
    """

    name = "ring_write_batch"
    why = (
        "a read/write stream (30% writes) at t=0 on the ring machine with the WAL "
        "attached: only workload of ring, its lock manager, and recovery"
    )

    def __init__(self, instances: int, queries: int, write_fraction: float, scale: float,
                 page_bytes: int, processors: int):
        self.queries = queries
        self.write_fraction = write_fraction
        self.scale = scale
        self.page_bytes = page_bytes
        self.processors = processors
        self.parts = tuple(str(i) for i in range(instances))
        self.load = (
            f"batch: {instances} streams of {queries} queries ({write_fraction:g} writes) "
            "plus the ten-query mix, each submitted at t=0 by one client; serial, one process"
        )

    def _stream(self, db, seed: int):
        """The seeded read/write stream with the ten-query mix spread through it.

        The mix's join chains make the reads contend with the writers for
        relation locks and exercise the ring's broadcast inner streaming.
        """
        stream = mixed_update_workload(
            db.catalog, db.relation_names, seed=seed, count=self.queries,
            write_fraction=self.write_fraction,
        )
        mix = benchmark_queries(db.catalog, db.relation_names, selectivity=0.1)
        step = max(1, len(stream) // len(mix))
        for offset, tree in enumerate(mix):
            stream.insert(offset * (step + 1), tree)
        return stream

    def _database(self, seed: int):
        return generate_benchmark_database(
            scale=self.scale, seed=seed, page_bytes=self.page_bytes
        )

    def setup(self, seed: int) -> RingInputs:
        """Each stream's database and queries.

        Writes change the catalog, so every pass rebuilds its own copy
        (timed there and moved to set-up); this build gives ``setup_s``
        its samples.
        """
        seeds = [instance_seed(seed, i) for i in range(len(self.parts))]
        dbs = [self._database(s) for s in seeds]
        for db, s in zip(dbs, seeds):
            self._stream(db, s)
        return RingInputs(seeds=seeds, db_bytes=dbs[0].total_bytes)

    def run(self, inputs: RingInputs, part: str) -> PassResult:
        index = int(part)
        start = time.perf_counter()
        db = self._database(inputs.seeds[index])
        stream = self._stream(db, inputs.seeds[index])
        setup_s = time.perf_counter() - start
        store = StableStore()
        tm = TransactionManager(store, self.page_bytes)
        machine = RingMachine(db.catalog, processors=self.processors, page_bytes=self.page_bytes)
        machine.attach_recovery(tm)
        for tree in stream:
            machine.submit(tree)
        report = machine.run()
        outputs = {
            "sim.events": report.events_processed,
            "sim.elapsed_ms": report.elapsed_ms,
            "recovery.commits": tm.commits,
            "recovery.aborts": tm.aborts,
        }
        return PassResult(part=part, queries=len(report.results), outputs=outputs,
                          report=report, setup_s=setup_s,
                          extra=(store, list(tm.committed_names)))

    def verify(self, inputs: RingInputs, result: PassResult) -> Check:
        """Every query finished; recovered bytes equal the committed replay.

        Recovery runs on the pass's stable store; every acknowledged
        commit must be in the recovered commit list, and the store must
        equal the interpreter's replay of that list, in commit order.
        """
        seed = inputs.seeds[int(result.part)]
        store, acknowledged = result.extra
        stream = self._stream(self._database(seed), seed)
        check = Check(attempted=len(stream))
        missing = len(stream) - len(result.report.results)
        committed = list(recover(store).committed)
        replay = oracle_bytes(committed, stream, self.scale, seed, self.page_bytes)
        if store.committed_bytes() != replay:
            check.failed += len(committed)
            check.problems.append(
                f"stream {result.part}: recovered store differs from the committed replay"
            )
        if not set(acknowledged) <= set(committed):
            check.problems.append(f"stream {result.part}: an acknowledged commit is not durable")
        if missing:
            check.failed += missing
            check.problems.append(f"stream {result.part}: {missing} queries never finished")
        return check


#: Workload parameters by size.  ``full`` is what the benchmark measures;
#: ``tiny`` is the smoke-test size.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "e1_direct_batch": dict(
            instances=3, scale=1.0, page_bytes=4096, processors=20, selectivity=0.25
        ),
        "e6_dataflow_batch": dict(
            instances=6, scale=0.5, page_bytes=2048, processors=8, selectivity=0.25
        ),
        "serve_direct_read": dict(
            sessions=10, machine="direct", rate_qps=15.0, duration_ms=20_000.0, scale=0.05
        ),
        "ring_write_batch": dict(
            instances=6, queries=300, write_fraction=0.3, scale=0.05, page_bytes=2048,
            processors=8,
        ),
    },
    "tiny": {
        "e1_direct_batch": dict(
            instances=1, scale=0.05, page_bytes=2048, processors=4, selectivity=0.25
        ),
        "e6_dataflow_batch": dict(
            instances=1, scale=0.05, page_bytes=2048, processors=4, selectivity=0.25
        ),
        "serve_direct_read": dict(
            sessions=1, machine="direct", rate_qps=15.0, duration_ms=4_000.0, scale=0.05
        ),
        "ring_write_batch": dict(
            instances=1, queries=40, write_fraction=0.3, scale=0.05, page_bytes=2048,
            processors=4,
        ),
    },
}

_CLASSES = {
    cls.name: cls for cls in (DirectBatch, DataflowBatch, ServeDirectRead, RingWriteBatch)
}

#: Workload names in benchmark order.
NAMES = tuple(_CLASSES)


def build(name: str, size: str = "full"):
    """The workload ``name`` at ``size``."""
    return _CLASSES[name](**SIZES[size][name])


def combine(outputs: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """One traced round's simulated outputs from its parts' outputs.

    Counts and simulated times add up over the parts (E1's page and
    relation runs); E1 also reports the paper's Figure 3.1 ratio,
    relation time over page time.
    """
    merged: Dict[str, float] = {}
    for part_outputs in outputs.values():
        for key, value in part_outputs.items():
            additive = key.startswith(("sim.", "e1.", "recovery."))
            merged[key] = merged.get(key, 0) + value if additive else value
    if "e1.page.elapsed_ms" in merged:
        merged["e1.relation_over_page"] = (
            merged["e1.relation.elapsed_ms"] / merged["e1.page.elapsed_ms"]
        )
    return merged
