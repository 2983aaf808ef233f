"""The runtime side of recovery: transactions, the buffer pool, crashes.

A :class:`TransactionManager` sits between a machine and its
:class:`~repro.recovery.store.StableStore`.  Machines call
:meth:`begin` / :meth:`stage_rows` / :meth:`commit` / :meth:`abort`;
the manager turns those into LSN-stamped WAL records, keeps the
buffered (volatile) page images and the dirty page table, enforces the
WAL rule (log records reach the durable log before the pages they
describe), takes fuzzy checkpoints, and — when a crash fault strikes —
models exactly what a power cut would leave on disk: the forced log
prefix, every page flushed so far, possibly some *torn* in-flight
flushes, and possibly a corrupt fragment of the unforced log tail.

Design choices worth naming:

* **Steal, no-force for pages; force for the log.**  Commit forces the
  log (durability) but leaves pages dirty (fuzzy); the checkpoint's
  background flusher writes the older half of the dirty page table, so
  a crash exercises both redo (committed but unflushed) and undo
  (flushed but uncommitted) paths.
* **Arrival-order staging, canonical commit.**  Mid-transaction the
  machine stages result rows as they arrive; full pages are logged in
  that order — genuine partial writes for undo to erase.  At commit the
  *canonical* images (sorted rows, densely packed; see
  :mod:`repro.recovery.apply`) are diffed against the buffered state and
  logged, so committed bytes are machine-independent.
* **Checkpoints every few commits** keep the analysis scan short and
  the dirty page table honest without a clock (simulated time is the
  machine's business, not the log's).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import RecoveryError
from repro.obs.metrics import NULL_REGISTRY
from repro.recovery.store import StableStore
from repro.recovery.wal import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_CHECKPOINT,
    KIND_CLR,
    KIND_COMMIT,
    KIND_UPDATE,
    NO_LSN,
    LogRecord,
    encode_record,
)
from repro.relational.page import page_capacity, pack_rows_into_pages
from repro.relational.schema import Row, Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.faults.injector import FaultInjector
    from repro.relational.catalog import Catalog
    from repro.sim.engine import Simulator

__all__ = ["Transaction", "TransactionManager"]


class Transaction:
    """One in-flight write transaction (a single write query)."""

    __slots__ = (
        "txn_id",
        "name",
        "relation",
        "schema",
        "base_pages",
        "staged",
        "pages_staged",
        "status",
        "first_lsn",
        "last_lsn",
    )

    def __init__(
        self,
        txn_id: int,
        name: str,
        relation: str,
        schema: Schema,
        base_pages: int,
    ) -> None:
        self.txn_id = txn_id
        self.name = name
        self.relation = relation
        self.schema = schema
        #: First page slot this transaction stages into (0 for
        #: replace-style delete/update; the old page count for append).
        self.base_pages = base_pages
        self.staged: List[Row] = []
        self.pages_staged = 0
        self.status = "active"
        self.first_lsn = NO_LSN
        self.last_lsn = NO_LSN


class TransactionManager:
    """Begin/stage/commit/abort + WAL + buffer pool + crash modeling."""

    def __init__(
        self,
        store: StableStore,
        page_bytes: int,
        checkpoint_every: int = 4,
    ) -> None:
        if checkpoint_every < 1:
            raise RecoveryError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.store = store
        self.page_bytes = page_bytes
        self.checkpoint_every = checkpoint_every
        self._next_lsn = 1
        self._next_txn_id = 1
        self._flushed_lsn = 0
        self._tail = bytearray()
        self._tail_last_lsn = 0
        #: Volatile mirror of every record appended (forced or not), by LSN.
        self._records: Dict[int, LogRecord] = {}
        #: Buffered current page images (the "buffer pool"), lazily seeded
        #: from the store's intended images.
        self._images: Dict[str, Dict[int, bytes]] = {}
        self._page_lsn: Dict[Tuple[str, int], int] = {}
        #: Dirty page table: (relation, page) -> recLSN.
        self.dirty: Dict[Tuple[str, int], int] = {}
        #: Active transaction table by txn_id.
        self.active: Dict[int, Transaction] = {}
        #: Acknowledged commits, in commit order (the durability contract:
        #: every name here must survive any subsequent crash).
        self.committed_names: List[str] = []
        self.aborted_names: List[str] = []
        self.commits = 0
        self.aborts = 0
        self.checkpoints = 0
        self.clr_records = 0
        #: WAL volume: records appended and their encoded bytes.  These
        #: discard what they count until :meth:`attach` binds them.
        self._wal_records = NULL_REGISTRY.counter("recovery.wal_records")
        self._wal_bytes = NULL_REGISTRY.counter("recovery.wal_bytes")
        self.crashed = False
        self._violations: List[str] = []

    # -- seeding ---------------------------------------------------------------

    def seed_from_catalog(self, catalog: "Catalog") -> None:
        """Install every catalog relation's current images as durable state."""
        for name in sorted(catalog.names):
            relation = catalog.get(name)
            self.store.seed_relation(
                name,
                [page.to_bytes() for page in relation.packed_pages(self.page_bytes)],
            )

    def attach(self, sim: "Simulator") -> None:
        """Bind to the simulator of the machine this manager logs for.

        The WAL invariants join its sanitizer's finish checks, and WAL
        volume is published as the ``recovery.wal_records`` and
        ``recovery.wal_bytes`` counters of its metrics registry.
        """
        self._wal_records = sim.metrics.counter("recovery.wal_records")
        self._wal_bytes = sim.metrics.counter("recovery.wal_bytes")
        if sim.sanitizer is not None:
            sim.sanitizer.register_finish_check(
                "recovery.wal", self.sanitize_violations
            )

    # -- internals -------------------------------------------------------------

    def _guard(self) -> None:
        if self.crashed:
            raise RecoveryError("transaction manager used after crash")

    def _current(self, relation: str) -> Dict[int, bytes]:
        table = self._images.get(relation)
        if table is None:
            # Pre-crash the stored bytes *are* the intended bytes (torn
            # writes only materialize at the crash itself).
            table = dict(self.store.pages.get(relation, {}))
            self._images[relation] = table
        return table

    def page_count(self, relation: str) -> int:
        table = self._current(relation)
        return (max(table) + 1) if table else 0

    def buffered_image(self, relation: str, page_number: int) -> bytes:
        return self._current(relation).get(page_number, b"")

    def _append(self, record: LogRecord) -> LogRecord:
        if record.lsn <= self._tail_last_lsn and self._tail_last_lsn:
            self._violations.append(
                f"WAL LSN not monotone: {record.lsn} appended after "
                f"{self._tail_last_lsn}"
            )
        frame = encode_record(record)
        self._tail.extend(frame)
        self._wal_records.add()
        self._wal_bytes.add(len(frame))
        self._tail_last_lsn = record.lsn
        self._records[record.lsn] = record
        return record

    def _take_lsn(self) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        return lsn

    def _install_image(
        self, relation: str, page_number: int, data: bytes, lsn: int
    ) -> None:
        table = self._current(relation)
        if data:
            table[page_number] = data
        else:
            table.pop(page_number, None)
        key = (relation, page_number)
        self.dirty.setdefault(key, lsn)
        self._page_lsn[key] = lsn

    # -- transaction lifecycle -------------------------------------------------

    def begin(
        self, name: str, relation: str, schema: Schema, append: bool = False
    ) -> Transaction:
        """Open a write transaction against one target relation."""
        self._guard()
        txn = Transaction(
            txn_id=self._next_txn_id,
            name=name,
            relation=relation,
            schema=schema,
            base_pages=self.page_count(relation) if append else 0,
        )
        self._next_txn_id += 1
        record = self._append(
            LogRecord(lsn=self._take_lsn(), kind=KIND_BEGIN, txn_id=txn.txn_id,
                      name=name)
        )
        txn.first_lsn = txn.last_lsn = record.lsn
        self.active[txn.txn_id] = txn
        return txn

    def log_page_update(
        self, txn: Transaction, relation: str, page_number: int, after: bytes
    ) -> LogRecord:
        """Log one page write (full before/after images) and buffer it."""
        self._guard()
        before = self.buffered_image(relation, page_number)
        record = self._append(
            LogRecord(
                lsn=self._take_lsn(), kind=KIND_UPDATE, txn_id=txn.txn_id,
                prev_lsn=txn.last_lsn, relation=relation,
                page_number=page_number, before=before, after=after,
            )
        )
        txn.last_lsn = record.lsn
        self._install_image(relation, page_number, after, record.lsn)
        return record

    def stage_rows(self, txn: Transaction, rows: List[Row]) -> None:
        """Stage arriving result rows; log each page as it fills.

        These are the genuine partial writes of an in-flight transaction
        — arrival-ordered, overwriting the target's pages from
        ``txn.base_pages`` up.  A crash or abort before commit must (and
        does) erase them via the undo chain.
        """
        self._guard()
        txn.staged.extend(rows)
        capacity = page_capacity(txn.schema, self.page_bytes)
        while len(txn.staged) >= capacity:
            chunk = txn.staged[:capacity]
            del txn.staged[:capacity]
            page = pack_rows_into_pages(
                txn.schema, chunk, self.page_bytes, validated=True
            )[0]
            self.log_page_update(
                txn, txn.relation, txn.base_pages + txn.pages_staged,
                page.to_bytes(),
            )
            txn.pages_staged += 1

    def commit(self, txn: Transaction, images: List[bytes]) -> None:
        """Log the canonical final images, force, and acknowledge.

        ``images`` is the canonical committed form of the whole target
        relation; only pages that differ from the buffered state produce
        records, and pages past the new length are logged as truncated.
        """
        self._guard()
        old_count = self.page_count(txn.relation)
        for i, image in enumerate(images):
            if self.buffered_image(txn.relation, i) != image:
                self.log_page_update(txn, txn.relation, i, image)
        for i in range(len(images), old_count):
            self.log_page_update(txn, txn.relation, i, b"")
        record = self._append(
            LogRecord(lsn=self._take_lsn(), kind=KIND_COMMIT,
                      txn_id=txn.txn_id, prev_lsn=txn.last_lsn)
        )
        txn.last_lsn = record.lsn
        txn.status = "committed"
        self.force()
        del self.active[txn.txn_id]
        self.committed_names.append(txn.name)
        self.commits += 1
        if self.commits % self.checkpoint_every == 0:
            self.checkpoint()

    def abort(self, txn: Transaction) -> None:
        """Undo every logged page write (CLR chain), then log ABORT.

        Called on lock-upgrade failure and on IC failover: the machine
        discards its in-flight rows, this walks the transaction's chain
        backwards restoring before-images, and the target relation is
        byte-identical to its pre-transaction state afterwards.
        """
        self._guard()
        lsn = txn.last_lsn
        while lsn != NO_LSN:
            record = self._records.get(lsn)
            if record is None:
                raise RecoveryError(
                    f"abort of {txn.name!r}: undo chain LSN {lsn} missing "
                    f"from the volatile log mirror"
                )
            if record.kind == KIND_UPDATE:
                clr = self._append(
                    LogRecord(
                        lsn=self._take_lsn(), kind=KIND_CLR,
                        txn_id=txn.txn_id, prev_lsn=txn.last_lsn,
                        relation=record.relation,
                        page_number=record.page_number,
                        after=record.before, undo_next_lsn=record.prev_lsn,
                    )
                )
                txn.last_lsn = clr.lsn
                self.clr_records += 1
                self._install_image(
                    record.relation, record.page_number, record.before, clr.lsn
                )
                lsn = record.prev_lsn
            elif record.kind == KIND_CLR:
                lsn = record.undo_next_lsn
            else:
                lsn = record.prev_lsn
        self._append(
            LogRecord(lsn=self._take_lsn(), kind=KIND_ABORT,
                      txn_id=txn.txn_id, prev_lsn=txn.last_lsn)
        )
        txn.status = "aborted"
        txn.staged = []
        del self.active[txn.txn_id]
        self.aborted_names.append(txn.name)
        self.aborts += 1

    # -- durability ------------------------------------------------------------

    def force(self) -> None:
        """Push the buffered log tail onto the durable log."""
        if self._tail:
            self.store.append_log(bytes(self._tail))
            self._flushed_lsn = self._tail_last_lsn
            self._tail = bytearray()

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    def flush_page(
        self, relation: str, page_number: int, skip_wal_force: bool = False
    ) -> None:
        """Write one buffered page durably, forcing the log first (WAL rule).

        ``skip_wal_force`` exists only so tests can demonstrate the
        sanitizer catching a write-ahead violation; production paths
        never pass it.
        """
        self._guard()
        key = (relation, page_number)
        lsn = self._page_lsn.get(key, 0)
        if lsn > self._flushed_lsn:
            if skip_wal_force:
                self._violations.append(
                    f"WAL order violated: page {relation}:{page_number} "
                    f"(page LSN {lsn}) flushed ahead of the forced log "
                    f"(flushed LSN {self._flushed_lsn})"
                )
            else:
                self.force()
        self.store.write_page(
            relation, page_number, self.buffered_image(relation, page_number)
        )
        self.dirty.pop(key, None)

    def checkpoint(self) -> LogRecord:
        """Fuzzy checkpoint: flush the older half of the DPT, log ATT+DPT."""
        self._guard()
        by_age = sorted(self.dirty, key=lambda k: (self.dirty[k], k))
        for key in by_age[: len(by_age) // 2]:
            self.flush_page(*key)
        att = {
            txn_id: (txn.last_lsn, txn.name)
            for txn_id, txn in self.active.items()
        }
        record = self._append(
            LogRecord(lsn=self._take_lsn(), kind=KIND_CHECKPOINT, txn_id=0,
                      att=att, dpt=dict(self.dirty))
        )
        self.force()
        self.checkpoints += 1
        return record

    def shutdown(self) -> None:
        """Clean end of run: force, flush every dirty page, checkpoint."""
        self._guard()
        self.force()
        for key in sorted(self.dirty):
            self.flush_page(*key)
        self.checkpoint()

    # -- crash modeling --------------------------------------------------------

    def crash(self, injector: Optional["FaultInjector"] = None) -> None:
        """Drop volatile state, leaving exactly what a power cut would.

        The forced log prefix and every flushed page survive.  With a
        ``torn_page`` spec armed, each dirty (in-flight) page may land
        half-written — bytes that fail their own sector checksum.  Only
        pages whose records sit inside the *forced* log prefix are
        eligible: a flush in flight at power-cut time had already passed
        :meth:`flush_page`'s WAL force, so its redo records are durable
        and the tear is always repairable.  With ``log_tail_corrupt``
        armed, a fragment of the *unforced* tail may reach the disk with
        its last frame garbled; nothing in that tail was ever
        acknowledged, so durability is preserved either way.
        """
        self._guard()
        torn_spec = injector.armed_spec("torn_page") if injector else None
        if torn_spec is not None:
            for key in sorted(self.dirty):
                relation, page_number = key
                data = self.buffered_image(relation, page_number)
                if not data:
                    continue
                if self._page_lsn.get(key, 0) > self._flushed_lsn:
                    # Records still in the unforced tail: the WAL rule
                    # means no flush of this page can be in flight yet.
                    continue
                if injector.decide("torn_page", "flush", torn_spec.rate):
                    half = len(data) // 2
                    torn = (
                        bytes(b ^ 0xA5 for b in data[:half]) + data[half:]
                    )
                    self.store.write_page(relation, page_number, data, torn=torn)
                    injector.count("torn_page", f"{relation}:{page_number}")
        tail_spec = (
            injector.armed_spec("log_tail_corrupt") if injector else None
        )
        if tail_spec is not None and self._tail:
            if injector.decide("log_tail_corrupt", "crash", tail_spec.rate):
                fraction = injector.uniform("log_tail_corrupt", "crash", 0.25, 1.0)
                keep = max(1, int(len(self._tail) * fraction))
                fragment = bytearray(self._tail[:keep])
                # Garble the end so the final (partial) frame never
                # passes its CRC — the scan must stop cleanly there.
                fragment[-1] ^= 0xFF
                self.store.append_log(bytes(fragment))
                injector.count("log_tail_corrupt", f"{keep}b")
        self.crashed = True
        self._images.clear()
        self.dirty.clear()
        self._page_lsn.clear()
        self.active.clear()
        self._records.clear()
        self._tail = bytearray()

    # -- sanitizer -------------------------------------------------------------

    def sanitize_violations(self) -> List[str]:
        """End-of-run WAL invariants (registered as a sanitizer check).

        * recorded WAL-order / LSN-monotonicity violations;
        * dirty-page leaks: a clean end of run must have flushed every
          buffered page (``shutdown`` does);
        * transactions still active after the machine drained;
        * an unforced log tail (acknowledgements would be lies).
        """
        if self.crashed:
            return []
        violations = list(self._violations)
        last = 0
        for lsn in self._records:
            if lsn <= last:
                violations.append(
                    f"WAL LSN not monotone in append order: {lsn} after {last}"
                )
            last = lsn
        for relation, page_number in sorted(self.dirty):
            violations.append(
                f"dirty page leaked at end of run: {relation}:{page_number} "
                f"(recLSN {self.dirty[(relation, page_number)]})"
            )
        for txn_id in sorted(self.active):
            violations.append(
                f"transaction {self.active[txn_id].name!r} still active "
                f"at end of run"
            )
        if self._tail:
            violations.append(
                f"unforced WAL tail of {len(self._tail)} bytes at end of run"
            )
        return violations
