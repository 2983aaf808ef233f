"""Outside-in tracing: wrap the public functions of ``repro`` from outside.

Nothing under ``src/`` knows this module exists.  :class:`Tracer`
replaces named functions and methods *where their callers look them up*
(a class attribute, or the module attribute a caller imported by name)
with wrappers that record a span or bump a counter, and puts the
originals back on exit.  Patch before machines are built: a machine that
pre-binds ``sim.schedule`` at construction then binds the wrapper.

Spans are ``(name, start, end, parent)`` rows kept in flat arrays while
the pass runs and written out once at the end.  A layer's self time is
the summed duration of its spans minus the part covered by their child
spans.  Event callbacks are spans too: :meth:`Simulator.schedule` and the
functions that take a completion callback wrap the callback, and the
span is charged to the layer of the module that defined it, so what is
left as ``Simulator.run`` self time is the event loop itself.

The hot predicates (``Instruction.has_dispatchable`` and compiled leaf
predicates) get count-only wrappers.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer, longest prefix first.  Used for event
#: callbacks, whose layer is where their code lives.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.direct.exec_model", "direct.exec"),
    ("repro.direct.cache", "direct.cache"),
    ("repro.direct", "direct.control"),
    ("repro.dataflow", "dataflow.control"),
    ("repro.ring", "ring"),
    ("repro.relational", "relational"),
    ("repro.query", "relational"),
    ("repro.recovery", "recovery"),
    ("repro.serve", "serve"),
    ("repro.workload", "workload"),
    ("repro.sim", "sim"),
)

#: Layers whose self time is reported, in report order.
LAYERS = (
    "sim",
    "direct.control",
    "direct.exec",
    "direct.cache",
    "dataflow.control",
    "dataflow.exec",
    "ring",
    "relational",
    "recovery",
    "serve",
    "workload",
    "other",
)


def module_layer(module: Optional[str]) -> str:
    """The layer a piece of code belongs to, from its defining module."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class Tracer:
    """Span recorder plus counters over one patched region.

    Use as a context manager: entering installs every wrapper, leaving
    restores the originals.  Counters and spans accumulate across
    regions until :meth:`reset`.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self._names: List[str] = []
        self._layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.caches: List[object] = []
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: List[int] = []

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans, counts and observed caches."""
        self.counts.clear()
        self.caches.clear()
        # Cleared in place: live wrappers hold references to these.
        for column in (self._span_name, self._span_parent, self._span_start, self._span_end):
            del column[:]
        self._stack.clear()

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self._names)
            self._name_ids[name] = nid
            self._names.append(name)
            self._layers.append(layer)
        return nid

    def spanned(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` wrapped so each call records one span."""
        nid = self._name_id(name, layer)
        names, parents = self._span_name, self._span_parent
        starts, ends, stack, clock = self._span_start, self._span_end, self._stack, time.perf_counter

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def callback(self, fn: Callable) -> Callable:
        """A completion callback as a span charged to its own module's layer."""
        module = getattr(fn, "__module__", None)
        qualname = getattr(fn, "__qualname__", type(fn).__name__)
        return self.spanned(fn, f"callback:{module}.{qualname}", module_layer(module))

    # -- patching -------------------------------------------------------------

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module:attr.path`` with ``make(original)``.

        Only an attribute defined on the owner itself is replaced, so an
        inherited method is never shadowed by accident.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            raise AttributeError(f"{target} is not defined on its owner")
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, (classmethod, staticmethod)):
            setattr(owner, attr, type(original)(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def __enter__(self) -> "Tracer":
        for target, make in _wrappers(self):
            self.patch(target, make)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer: span time minus child span time."""
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end
        child = [0.0] * len(starts)
        for idx in range(len(starts)):
            parent = parents[idx]
            if parent >= 0:
                child[parent] += ends[idx] - starts[idx]
        per_layer: Dict[str, float] = defaultdict(float)
        layers = self._layers
        for idx in range(len(starts)):
            per_layer[layers[names[idx]]] += ends[idx] - starts[idx] - child[idx]
        return {layer: per_layer.get(layer, 0.0) for layer in LAYERS}

    def write(self, stem) -> None:
        """Write every span and counter out: ``<stem>.json`` and ``<stem>.bin``.

        The JSON header holds the name table, each name's layer and the
        counters; the binary file holds the span columns back to back
        (``name_id`` and ``parent`` as int32, ``start`` and ``end`` as
        float64 seconds), each ``spans`` entries long, in native byte order.
        """
        header = {
            "schema": "perfbench-spans/v1",
            "names": self._names,
            "layers": self._layers,
            "counts": dict(self.counts),
            "spans": self.span_count,
            "columns": ["name_id:i4", "parent:i4", "start_s:f8", "end_s:f8"],
        }
        with open(f"{stem}.json", "w") as out:
            json.dump(header, out, sort_keys=True)
        with open(f"{stem}.bin", "wb") as out:
            for column in (self._span_name, self._span_parent, self._span_start, self._span_end):
                column.tofile(out)


# ---------------------------------------------------------------------------
# The wrap table: one entry per public boundary of each layer.


def _wrappers(tr: Tracer):
    counts = tr.counts

    def span(name: str, layer: str, before=None, after=None, callback_arg=None):
        """Factory for a spanned wrapper with optional count hooks.

        ``callback_arg`` is the position (after ``self``) or keyword of a
        completion callback to charge to its own layer.
        """

        def make(original):
            inner = original
            if callback_arg is not None:
                pos, key = callback_arg

                def inner(*args, **kwargs):
                    if key in kwargs:
                        if kwargs[key] is not None:
                            kwargs[key] = tr.callback(kwargs[key])
                    elif len(args) > pos and args[pos] is not None:
                        args = args[:pos] + (tr.callback(args[pos]),) + args[pos + 1 :]
                    return original(*args, **kwargs)

            spanned = tr.spanned(inner, name, layer)
            if before is None and after is None:
                return spanned

            def hooked(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                result = spanned(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return hooked

        return make

    def count_calls(key: str):
        def make(original):
            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return counted

        return make

    def before_bump(key: str):
        def hook(args, kwargs):
            counts[key] += 1

        return hook

    def counting_compile(original):
        """Compiled predicates that count each evaluation."""

        def compile(self, schema):
            test = original(self, schema)

            def evaluate(row):
                counts["relational.predicate_evals"] += 1
                return test(row)

            return evaluate

        return compile

    # -- sim --------------------------------------------------------------
    def run_events(original):
        spanned = tr.spanned(original, "Simulator.run", "sim")

        def run(self, *args, **kwargs):
            before = self.events_processed
            try:
                return spanned(self, *args, **kwargs)
            finally:
                counts["sim.events"] += self.events_processed - before

        return run

    yield "repro.sim.engine:Simulator.run", run_events
    yield "repro.sim.engine:Simulator.schedule", span(
        "Simulator.schedule", "sim", callback_arg=(2, "action")
    )
    yield "repro.sim.resources:Resource.submit", span(
        "Resource.submit", "sim", before=before_bump("sim.resource_submits"),
        callback_arg=(2, "done"),
    )

    # -- direct: machine control --------------------------------------------
    yield "repro.direct.machine:pick_instruction", span(
        "scheduler.pick_instruction", "direct.control", before=before_bump("direct.picks")
    )
    yield "repro.direct.instructions:Instruction.has_dispatchable", count_calls(
        "direct.dispatch_scans"
    )
    yield "repro.direct.instructions:JoinInstruction.has_dispatchable", count_calls(
        "direct.dispatch_scans"
    )

    # -- direct: execution model (shared kernels) -----------------------------
    for cls in ("RestrictInstruction", "ProjectInstruction", "UnionInstruction"):
        yield f"repro.direct.instructions:{cls}.compute", span(
            f"{cls}.compute", "direct.exec"
        )
    yield "repro.direct.instructions:JoinInstruction.compute_pair", span(
        "JoinInstruction.compute_pair", "direct.exec"
    )
    # join_pages is looked up from the module by DIRECT and the data-flow
    # cells (function-local imports) and bound by name in the ring's IPs.
    for site in ("repro.direct.exec_model", "repro.ring.processor"):
        yield f"{site}:join_pages", span(
            "exec_model.join_pages", "direct.exec", before=before_bump("direct.exec.join_pages")
        )

    # -- direct: disk cache (shared by DIRECT and the ring machine) ----------
    def remember_cache(original):
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            tr.caches.append(self)

        return init

    def cache_lookup(args, kwargs):
        cache, ref = args[0], args[1]
        counts["direct.cache.reads"] += 1
        if cache.is_resident(ref) or cache.has_inflight(ref):
            counts["direct.cache.hits"] += 1

    yield "repro.direct.cache:DiskCache.__init__", remember_cache
    yield "repro.direct.cache:DiskCache.read_shared", span(
        "DiskCache.read_shared", "direct.cache", before=cache_lookup, callback_arg=(2, "done")
    )
    yield "repro.direct.cache:DiskCache.write_page", span(
        "DiskCache.write_page", "direct.cache", callback_arg=(2, "done")
    )

    # -- dataflow ------------------------------------------------------------
    def firing_scan(args, kwargs, units):
        counts["dataflow.ready_scans"] += 1
        counts["dataflow.firings"] += len(units)

    yield "repro.dataflow.cell:Cell.ready_firings", span(
        "Cell.ready_firings", "dataflow.control", after=firing_scan
    )
    yield "repro.dataflow.cell:Cell.execute", span("Cell.execute", "dataflow.exec")

    def arbitration(args, kwargs, result):
        counts["dataflow.arbitration_bytes"] += result.arbitration_bytes

    yield "repro.dataflow.machine:DataflowMachine.run_service", span(
        "DataflowMachine.run_service", "dataflow.control", after=arbitration
    )

    # -- ring and its lock manager --------------------------------------------
    def message(broadcast: bool):
        def hook(args, kwargs):
            nbytes = args[1] if len(args) > 1 else kwargs["nbytes"]
            counts["ring.messages"] += 1
            counts["ring.bytes"] += nbytes
            if broadcast:
                counts["ring.broadcasts"] += 1

        return hook

    yield "repro.ring.network:Ring.send", span(
        "Ring.send", "ring", before=message(False), callback_arg=(2, "deliver")
    )
    yield "repro.ring.network:Ring.broadcast", span(
        "Ring.broadcast", "ring", before=message(True), callback_arg=(2, "deliver")
    )

    def ip_request(args, kwargs):
        counts["ring.ip_requests"] += args[2] if len(args) > 2 else kwargs["count"]

    yield "repro.ring.master:MasterController.request_ips", span(
        "MasterController.request_ips", "ring", before=ip_request
    )
    yield "repro.ring.machine:RingMachine.mc_grant_ip", span(
        "RingMachine.mc_grant_ip", "ring", before=before_bump("ring.ip_grants")
    )

    def lock_outcome(refusal_key: Optional[str]):
        def hook(args, kwargs, granted):
            counts["ring.locks.requests"] += 1
            if granted:
                counts["ring.locks.granted"] += 1
            elif refusal_key:
                counts[refusal_key] += 1

        return hook

    yield "repro.ring.concurrency:LockManager.try_acquire", span(
        "LockManager.try_acquire", "ring", after=lock_outcome(None)
    )
    yield "repro.ring.concurrency:LockManager.try_upgrade", span(
        "LockManager.try_upgrade", "ring", after=lock_outcome("ring.locks.upgrade_refusals")
    )

    # -- relational ------------------------------------------------------------
    yield "repro.relational.schema:Schema.validate_row", span(
        "Schema.validate_row", "relational", before=before_bump("relational.validate_row")
    )
    yield "repro.relational.schema:Schema.pack", span(
        "Schema.pack", "relational", before=before_bump("relational.pack")
    )
    for target in (
        "repro.relational.relation:Relation.from_rows",
        "repro.relational.page:Page.extend_unchecked",
        "repro.relational.page:Page.to_bytes",
        "repro.relational.page:Page.from_bytes",
    ):
        yield target, span(target.split(":")[1], "relational")
    # Leaf predicates only: And/Or/Not evaluate through their leaves.
    yield "repro.relational.predicate:Comparison.compile", counting_compile
    yield "repro.relational.predicate:Between.compile", counting_compile

    # -- recovery ----------------------------------------------------------------
    for method, key in (
        ("commit", "recovery.commits"),
        ("abort", "recovery.aborts"),
        ("force", "recovery.forces"),
        ("checkpoint", "recovery.checkpoints"),
    ):
        yield f"repro.recovery.txn:TransactionManager.{method}", span(
            f"TransactionManager.{method}", "recovery", before=before_bump(key)
        )

    def wal_record(args, kwargs, frame):
        counts["recovery.wal_records"] += 1
        counts["recovery.wal_bytes"] += len(frame)

    # txn.py imports encode_record by name; patch it where txn looks it up.
    yield "repro.recovery.txn:encode_record", span(
        "wal.encode_record", "recovery", after=wal_record
    )

    # -- serve -------------------------------------------------------------------
    yield "repro.serve.admission:AdmissionQueue.offer", span("AdmissionQueue.offer", "serve")
    yield "repro.serve.admission:AdmissionQueue.complete", span(
        "AdmissionQueue.complete", "serve"
    )
