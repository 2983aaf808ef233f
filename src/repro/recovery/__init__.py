"""Durable update transactions: WAL, checkpoints, and ARIES-lite restart.

The source paper's Section 3 instruction set includes *update* packets
flowing through the same page-granularity dataflow as queries; this
package supplies the durability half of that story.  It is deliberately
machine-agnostic: the ring, DIRECT, and dataflow simulators all talk to
the same :class:`TransactionManager`, which logs page-granularity
before/after images to a :class:`StableStore` and recovers them with a
three-phase analysis/redo/undo restart (:func:`recover`).

Layering:

* :mod:`repro.recovery.wal` — LSN-stamped, CRC-framed, byte-deterministic
  log record encoding; a scan that stops cleanly at a torn tail.
* :mod:`repro.recovery.store` — the "disk": durable page images with
  per-page checksums plus the durable log prefix.
* :mod:`repro.recovery.txn` — the runtime side: begin/stage/commit/abort,
  fuzzy checkpoints, WAL-before-flush enforcement, crash modeling.
* :mod:`repro.recovery.restart` — analysis / redo / undo restart.
* :mod:`repro.recovery.apply` — canonical committed-state page images and
  the write-apply helpers shared by all three machines.
* :mod:`repro.recovery.harness` — crash/recover benchmark used by the
  E17 experiment, ``repro recover``, and the CI smoke job.
"""

from repro.recovery.apply import (
    apply_write,
    canonical_pages,
)
from repro.recovery.restart import RecoveryReport, recover
from repro.recovery.store import StableStore
from repro.recovery.txn import Transaction, TransactionManager
from repro.recovery.wal import (
    KIND_ABORT,
    KIND_BEGIN,
    KIND_CHECKPOINT,
    KIND_CLR,
    KIND_COMMIT,
    KIND_UPDATE,
    LogRecord,
    decode_stream,
    encode_record,
)

__all__ = [
    "KIND_ABORT",
    "KIND_BEGIN",
    "KIND_CHECKPOINT",
    "KIND_CLR",
    "KIND_COMMIT",
    "KIND_UPDATE",
    "LogRecord",
    "RecoveryReport",
    "StableStore",
    "Transaction",
    "TransactionManager",
    "apply_write",
    "canonical_pages",
    "decode_stream",
    "encode_record",
    "recover",
]
