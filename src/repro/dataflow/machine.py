"""The Dennis-style machine loop: cells -> arbitration -> processors ->
distribution -> cells (Figure 2.2).

Timing model (all constants from :class:`repro.direct.exec_model.ExecModel`
and :mod:`repro.hw`):

* the **arbitration network** is ``network_width`` parallel paths, each
  carrying one operation packet at ``network_rate`` bytes/ms; a packet's
  size is its operand pages plus the overhead constant ``c`` — or, at
  tuple granularity, the per-tuple formula of Section 3.3
  (rows * (record + c) for unary firings, pairs * (w_o + w_i + c) for
  join firings);
* **processors** charge the per-row/per-pair CPU constants;
* the **distribution network** mirrors the arbitration network, carrying
  result pages to destination cells.

The machine is workload-agnostic: submit any query trees, run, and check
the produced relations against the reference interpreter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import hw
from repro.errors import CrashError, FaultError, MachineError
from repro.direct.exec_model import ExecModel
from repro.recovery.apply import apply_write
from repro.recovery.txn import Transaction, TransactionManager
from repro.relational.catalog import Catalog
from repro.relational.page import Page, page_capacity
from repro.relational.relation import Relation
from repro.relational.schema import Row
from repro.query.tree import AppendNode, DeleteNode, JoinNode, QueryTree, UpdateNode
from repro.dataflow.cell import Cell, FiringUnit
from repro.dataflow.program import DataflowProgram, compile_query
from repro.sim.engine import Simulator
from repro.sim.resources import Resource


@dataclass
class DataflowReport:
    """Outcome of one data-flow machine run."""

    granularity: str
    processors: int
    elapsed_ms: float
    firings: int
    arbitration_bytes: int
    distribution_bytes: int
    results: Dict[str, Relation]
    query_times: Dict[str, float]
    events_processed: int

    def arbitration_mbps(self) -> float:
        """Average arbitration-network load (the Section 3.3 quantity)."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.arbitration_bytes * 8.0 / 1e6 / (self.elapsed_ms / 1000.0)


class DataflowMachine:
    """The MIT-model machine executing relational query trees."""

    def __init__(
        self,
        catalog: Catalog,
        processors: int = 4,
        granularity: str = "page",
        page_bytes: int = 2048,
        model: Optional[ExecModel] = None,
        network_width: int = 4,
        network_rate: float = 2048.0,  # bytes per ms per path (~2 MB/s)
        max_events: int = 2_000_000,
    ):
        if granularity not in ("relation", "page", "tuple"):
            raise MachineError(f"unknown granularity {granularity!r}")
        if processors < 1:
            raise MachineError("need at least one processor")
        self.catalog = catalog
        self.granularity = granularity
        self.page_bytes = page_bytes
        self.model = model or ExecModel(page_bytes=page_bytes)
        self.network_rate = network_rate
        self.max_events = max_events

        self.sim = Simulator()
        self.arbitration = Resource(self.sim, "arbitration", capacity=network_width)
        self.distribution = Resource(self.sim, "distribution", capacity=network_width)
        self.processors = Resource(self.sim, "processors", capacity=processors)
        self._processor_count = processors

        self._programs: List[DataflowProgram] = []
        #: The memory section in scan order (programs in submission
        #: order, cells in program order); a cell's index is its position.
        self._cells: List[Cell] = []
        #: Min-heap of touched positions awaiting a visit by :meth:`_pump`;
        #: ``_queued[position]`` keeps each position in it at most once.
        self._touched: List[int] = []
        self._queued: List[bool] = []
        self._assemblies: Dict[int, List[Row]] = {}
        self._results: Dict[str, List[Row]] = {}
        self._query_done_at: Dict[str, float] = {}
        self.firings = 0
        self.arbitration_bytes = 0
        self.distribution_bytes = 0
        #: Durable write transactions (see :meth:`attach_recovery`);
        #: None means writes install in-memory only.
        self.txn: Optional[TransactionManager] = None
        self._write_txns: Dict[str, Transaction] = {}
        #: Serving hook: ``(query_name, completed_at_ms, result_rows)``
        #: on root-cell completion.
        self.on_query_complete: Optional[Callable[[str, float, int], None]] = None
        #: True while :meth:`run_service` drives the loop — mid-run
        #: submissions then pump immediately.  Batch runs leave this off
        #: so their event sequence (and byte-identity) is unchanged.
        self._serving = False

    # ------------------------------------------------------------------ host API

    def attach_recovery(self, tm: TransactionManager) -> None:
        """Arm durable write transactions through ``tm``.

        Seeds the stable store from the catalog's current images if the
        caller has not already, and registers the WAL invariants with
        this run's sanitizer.  Like DIRECT, the data-flow machine has no
        admission lock manager: conflicting writes must be serialized by
        the caller (chained submission).
        """
        if not tm.store.pages:
            tm.seed_from_catalog(self.catalog)
        self.txn = tm
        tm.register_sanitizer(self.sim)

    def submit(self, tree: QueryTree) -> DataflowProgram:
        """Compile ``tree`` into cells and add it to the memory section."""
        root = tree.root
        if (
            self.txn is not None
            and isinstance(root, (AppendNode, DeleteNode, UpdateNode))
            and tree.name not in self._write_txns
        ):
            tree.validate(self.catalog)
            self._write_txns[tree.name] = self.txn.begin(
                tree.name,
                root.target_relation,
                root.output_schema(self.catalog),
                append=isinstance(root, AppendNode),
            )
        program = compile_query(tree, self.catalog, self.page_bytes)
        self._programs.append(program)
        for cell in program.cells:
            self._assemblies[cell.cell_id] = []
            cell.tree_name = tree.name
            cell.position = len(self._cells)
            self._cells.append(cell)
            self._queued.append(False)
            self._touch(cell)
        if self.sim.spans is not None:
            # Idempotent: the serve layer may have opened this record at
            # offer time.
            self.sim.spans.query_begin(tree.name, self.sim.now)
        if self._serving:
            self._pump_soon()
        return program

    def run(self) -> DataflowReport:
        """Fire enabled cells until every query's root completes."""
        if not self._programs:
            raise MachineError("no queries submitted")
        return self.run_service()

    def run_service(self) -> DataflowReport:
        """Drive the machine until the event heap drains, then report.

        Queries may arrive mid-run via :meth:`submit` (each one pumps the
        firing loop); all of them must finish before the heap drains.
        """
        self._serving = True
        self._arm_machine_crash()
        self.sim.schedule(0.0, self._pump, label="pump")
        self.sim.run(max_events=self.max_events)
        unfinished = [
            p.tree.name for p in self._programs if not p.root.done
        ]
        if unfinished:
            raise MachineError(f"data-flow machine stalled on: {unfinished}")
        if self.txn is not None:
            # Clean shutdown: force the log, flush every dirty page, and
            # checkpoint — the sanitizer's dirty-page leak check runs next.
            self.txn.shutdown()
        self.sim.finalize_sanitizer()
        return DataflowReport(
            granularity=self.granularity,
            processors=self._processor_count,
            elapsed_ms=self.sim.now,
            firings=self.firings,
            arbitration_bytes=self.arbitration_bytes,
            distribution_bytes=self.distribution_bytes,
            results={
                p.tree.name: self._result_relation(p) for p in self._programs
            },
            query_times=dict(self._query_done_at),
            events_processed=self.sim.events_processed,
        )

    def _arm_machine_crash(self) -> None:
        """Schedule a whole-machine power cut if the plan draws one.

        Mirrors the ring machine: the strike raises
        :class:`repro.errors.CrashError` straight out of the event loop,
        and the crash harness picks recovery up from the stable store.
        """
        inj = self.sim.faults
        if inj is None:
            return
        spec = inj.armed_spec("machine_crash")
        if spec is None or spec.rate <= 0:
            return
        if self.txn is None:
            raise FaultError(
                "fault plan arms machine_crash but no transaction manager "
                "is attached (attach_recovery); a crash without durable "
                "state cannot be recovered"
            )
        if not inj.decide("machine_crash", "machine", spec.rate):
            return
        at_ms = spec.at_ms + inj.uniform("machine_crash", "machine", 0.0, spec.window_ms)

        def crash_now() -> None:
            inj.count("machine.crash", "machine")
            raise CrashError(
                f"machine crash fault at t={self.sim.now:.3f}ms "
                f"({len(self.txn.active)} transaction(s) in flight)"
            )

        self.sim.schedule_at(at_ms, crash_now, label="fault.machine_crash")

    def _result_relation(self, program: DataflowProgram) -> Relation:
        return Relation.from_rows(
            f"{program.tree.name}.result",
            program.root.output_schema,
            self._results.get(program.tree.name, []),
            page_bytes=self.page_bytes,
            validated=True,  # result rows came off distributed pages
        )

    # ------------------------------------------------------------------ firing loop

    def _touch(self, cell: Cell) -> None:
        """Queue ``cell`` for a visit: its firing or completion state moved."""
        position = cell.position
        if not self._queued[position]:
            self._queued[position] = True
            heapq.heappush(self._touched, position)

    def _pump(self) -> None:
        """Visit touched cells in memory order; enqueue every newly enabled firing.

        A cell nobody touched since its last visit is quiescent (no
        firings, completion check a no-op), so this launches exactly what
        a full scan of the memory section would.  Touches made during a
        pass land ahead of the cursor (a destination follows its source
        in program order; new programs append), as the scan would see
        them; one at or behind the cursor ends the pass and waits for the
        next pump, as it would under the scan.
        """
        touched = self._touched
        last = -1
        while touched and touched[0] > last:
            last = heapq.heappop(touched)
            self._queued[last] = False
            cell = self._cells[last]
            if cell.done:
                continue  # can neither fire nor complete again
            for unit in cell.ready_firings(self.granularity):
                self._launch(unit)
            self._check_cell_completion(cell)

    def _launch(self, unit: FiringUnit) -> None:
        cell = unit.cell
        cell.firings_outstanding += 1
        self.firings += 1
        nbytes = self._packet_bytes(unit)
        self.arbitration_bytes += nbytes

        query = cell.tree_name

        def at_processor() -> None:
            cpu = self._cpu_ms(unit)
            self.processors.submit(
                cpu, lambda: self._fired(unit), nbytes=0, query=query
            )

        self.arbitration.submit(
            nbytes / self.network_rate,
            at_processor,
            nbytes=nbytes,
            query=query,
            span_kind="transit",
        )

    def _packet_bytes(self, unit: FiringUnit) -> int:
        c = self.model.packet_overhead_bytes
        if self.granularity != "tuple":
            return unit.payload_bytes + c
        # Section 3.3 accounting: every tuple (or tuple pair) is a packet.
        cell = unit.cell
        if isinstance(cell.node, JoinNode):
            outer_rows = sum(
                cell.operands[0].pages[p].row_count for s, p in unit.pages if s == 0
            )
            inner_rows = sum(
                cell.operands[1].pages[p].row_count for s, p in unit.pages if s == 1
            )
            w_o = cell.operands[0].schema.record_width
            w_i = cell.operands[1].schema.record_width
            return outer_rows * inner_rows * (w_o + w_i + c)
        width = cell.operands[unit.pages[0][0]].schema.record_width if unit.pages else 8
        return unit.payload_rows * (width + c)

    def _cpu_ms(self, unit: FiringUnit) -> float:
        cell = unit.cell
        ops = cell.cpu_cost_rows(unit)
        if isinstance(cell.node, JoinNode):
            return ops * self.model.join_pair_ms
        return ops * self.model.restrict_tuple_ms

    def _fired(self, unit: FiringUnit) -> None:
        cell = unit.cell
        rows = cell.execute(unit)
        cell.firings_outstanding -= 1
        self._touch(cell)
        self._emit(cell, rows)
        # New results (or freed processors) may enable more firings.
        self._pump()

    # ------------------------------------------------------------------ distribution

    def _emit(self, cell: Cell, rows: List[Row]) -> None:
        """Assemble result rows into pages; distribute completed pages."""
        buffer = self._assemblies[cell.cell_id]
        buffer.extend(rows)
        capacity = page_capacity(cell.output_schema, self.page_bytes)
        while len(buffer) >= capacity:
            page = Page(cell.output_schema, self.page_bytes)
            page.extend_unchecked(buffer[:capacity])  # kernel outputs are valid tuples
            del buffer[:capacity]
            self._distribute(cell, page)

    def _flush(self, cell: Cell) -> None:
        buffer = self._assemblies[cell.cell_id]
        if buffer:
            page = Page(cell.output_schema, self.page_bytes)
            page.extend_unchecked(buffer)  # never overflows: _emit drains full pages
            buffer.clear()
            self._distribute(cell, page, final=True)

    def _distribute(self, cell: Cell, page: Page, final: bool = False) -> None:
        nbytes = page.used_bytes + self.model.packet_overhead_bytes
        self.distribution_bytes += nbytes
        cell.firings_outstanding += 1  # page in flight counts as work

        def delivered() -> None:
            cell.firings_outstanding -= 1
            self._touch(cell)
            if cell.destinations:
                for destination, slot in cell.destinations:
                    destination.operands[slot].deliver(page)
                    self._touch(destination)
            else:
                tree_name = cell.tree_name
                rows = list(page.rows())
                self._results.setdefault(tree_name, []).extend(rows)
                txn = self._write_txns.get(tree_name)
                if txn is not None:
                    # WAL-stage the write root's output as it lands — a
                    # crash mid-run leaves genuine partial writes for undo.
                    self.txn.stage_rows(txn, rows)
            self._pump()

        self.distribution.submit(
            nbytes / self.network_rate,
            delivered,
            nbytes=nbytes,
            query=cell.tree_name,
            span_kind="transit",
        )

    # ------------------------------------------------------------------ completion

    def _check_cell_completion(self, cell: Cell) -> None:
        if cell.done or not cell.all_work_fired_and_done(self.granularity):
            return
        if self._assemblies[cell.cell_id]:
            self._flush(cell)
            return  # completion re-checked when the flush page lands
        cell.done = True
        for destination, slot in cell.destinations:
            destination.operands[slot].finish()
            self._touch(destination)
        if not cell.destinations:
            tree_name = cell.tree_name
            if tree_name not in self._query_done_at:
                self._query_done_at[tree_name] = self.sim.now
                if isinstance(cell.node, (AppendNode, DeleteNode, UpdateNode)):
                    txn = self._write_txns.pop(tree_name, None)
                    _, all_rows = apply_write(
                        self.catalog,
                        cell.node,
                        self._results.get(tree_name, []),
                        self.page_bytes,
                        tm=self.txn if txn is not None else None,
                        txn=txn,
                    )
                    # Write queries report the target's whole new content.
                    self._results[tree_name] = all_rows
                rows = len(self._results.get(tree_name, []))
                if self.sim.spans is not None:
                    self.sim.spans.query_end(tree_name, self.sim.now, rows)
                if self.on_query_complete is not None:
                    self.on_query_complete(tree_name, self.sim.now, rows)
        self._pump_soon()

    def _pump_soon(self) -> None:
        self.sim.schedule(0.0, self._pump, label="pump")


def run_dataflow(
    catalog: Catalog,
    queries: Sequence[QueryTree],
    processors: int = 4,
    granularity: str = "page",
    **kwargs,
) -> DataflowReport:
    """Build a machine, submit ``queries``, run, and report."""
    machine = DataflowMachine(
        catalog, processors=processors, granularity=granularity, **kwargs
    )
    for tree in queries:
        machine.submit(tree)
    return machine.run()
