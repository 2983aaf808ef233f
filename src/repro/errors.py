"""Exception hierarchy for the dataflow-dbm reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed or a row does not match its schema."""


class PageError(ReproError):
    """A page operation failed (overflow, bad slot, corrupt bytes)."""


class CatalogError(ReproError):
    """A catalog lookup or registration failed."""


class PredicateError(ReproError):
    """A predicate or scalar expression is malformed or ill-typed."""


class QueryTreeError(ReproError):
    """A query tree is structurally invalid."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class PacketError(ReproError):
    """A ring packet failed to encode or decode."""


class MachineError(ReproError):
    """A machine simulator (DIRECT or ring) reached an invalid state."""


class ConcurrencyError(ReproError):
    """A concurrency-control invariant was violated."""


class SanitizerError(ReproError):
    """The runtime simulation sanitizer detected an invariant violation.

    Raised only when a simulator runs in sanitize mode (its run
    configuration has ``sanitize=True``, e.g. inside
    ``repro.obs.configured(sanitize=True)``); the message carries a trace-context
    breadcrumb of the most recently fired events.
    """


class CheckError(ReproError):
    """A correctness-tooling gate was misconfigured or cannot run.

    Raised by :mod:`repro.check.identity` for unknown experiments —
    distinct from the gate *failing*, which is reported as data.
    """


class WorkloadError(ReproError):
    """The benchmark workload could not be generated as specified."""


class FaultError(ReproError):
    """Fault injection was misconfigured or recovery machinery gave up.

    Raised with an injection-site breadcrumb (which fault class, which
    component) so a chaos run that cannot recover points at the site
    rather than at a generic machine invariant.
    """


class RetryExhaustedError(FaultError):
    """A bounded-retry recovery path ran out of attempts.

    Ring retransmission and disk read retry raise this once a single
    packet or page transfer has failed ``max_retries + 1`` times in a
    row; the message names the site and the attempt count.
    """


class CrashError(FaultError):
    """A planned whole-machine crash fault fired mid-run.

    Raised out of the event loop when a ``machine_crash`` fault strikes;
    the crash harness catches it at the ``run_service`` boundary, drops
    volatile state, and hands the stable store to restart recovery.
    """


class RecoveryError(ReproError):
    """The write-ahead log or restart protocol hit an impossible state.

    Distinct from *detected* damage (a torn page, a corrupt log tail),
    which recovery repairs silently: this error means the log itself
    violates its own invariants (non-monotone LSNs, a redo image missing
    for a page known to be damaged) and restart cannot proceed.
    """
