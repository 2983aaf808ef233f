"""Seeded fault plans: *what* to break, *where*, and *how hard*.

A :class:`FaultPlan` is pure data — a seed plus a tuple of per-site
:class:`FaultSpec` entries — so the same plan can be shipped to sweep
worker processes, serialized into an experiment's JSON report, and
replayed bit-for-bit.  The plan says nothing about *when* individual
faults strike: every draw happens at simulation time through the
:class:`repro.faults.injector.FaultInjector` bound to a
:class:`repro.sim.engine.Simulator`, from named RNG streams keyed by
``(plan.seed, fault kind, site)``.  Same seed + same plan therefore
means the byte-identical run, and a plan whose every spec is unarmed
(rate 0, no scheduled kills) binds no injector at all — the simulator
takes the exact unarmed code path.

Fault classes (paper Section 4.0, requirement 5 — "the machine should
be able to survive an arbitrary number of disabled processors"):

``ring_drop``
    A ring transfer vanishes in the insertion network; the sender's
    retransmission timer (deterministic timeout × backoff) recovers it.
``ring_corrupt``
    A ring transfer arrives with a bad checksum (the trailing CRC-32
    word of the Figure 4.3-4.5 codecs); the receiver NAKs and the
    sender retransmits after ``nak_delay_ms``.
``disk_read_error``
    A mass-storage page read fails transiently; the cache retries the
    transfer up to ``max_retries`` times before raising
    :class:`repro.errors.RetryExhaustedError`.
``cache_poison``
    A clean, unpinned disk-cache frame is poisoned; the cache discards
    it and re-fetches the page from mass storage.
``ip_kill``
    An Instruction Processor fail-stops mid-run (the E13 experiment),
    either at explicit ``kills=((ip_id, at_ms), ...)`` times or drawn
    per-IP at ``rate`` within ``window_ms``.  Requires the ring
    machine's watchdog fault tolerance.
``ic_failure``
    An Instruction Controller fail-stops; the Master Controller tears
    down the query's instruction queue and re-activates it from the
    still-held locks (bounded by ``max_failovers`` per query).
``machine_crash``
    The whole machine loses power mid-run: the event loop aborts with
    :class:`repro.errors.CrashError`, volatile state is discarded, and
    the :mod:`repro.recovery` restart protocol rebuilds committed state
    from the stable store.  ``at_ms`` (or a rate-drawn time inside
    ``window_ms``) picks the strike time.
``torn_page``
    At a crash, each in-flight dirty-page flush may land half-written —
    bytes failing their own sector checksum; redo repairs it from the
    last logged full image.  Only meaningful alongside ``machine_crash``.
``log_tail_corrupt``
    At a crash, a fragment of the *unforced* WAL tail reaches disk with
    its final frame garbled; the recovery scan stops at the last
    CRC-valid frame.  Nothing in that tail was acknowledged, so no
    committed transaction is lost.  Only meaningful alongside
    ``machine_crash``.

A plan is armed through the run configuration (:mod:`repro.obs`):
simulators constructed inside ``obs.configured(faults=plan)`` pick it up
automatically, and the sweep runner ships it to worker processes::

    from repro import faults, obs

    plan = faults.FaultPlan(seed=7, specs=(
        faults.FaultSpec(kind="ring_drop", rate=0.05),
    ))
    with obs.configured(faults=plan):
        machine = RingMachine(catalog, processors=8, fault_tolerant=True)
    report = machine.run()   # injector already bound at construction
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import FaultError

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]

#: Every fault class the injector understands.
FAULT_KINDS: Tuple[str, ...] = (
    "ring_drop",
    "ring_corrupt",
    "disk_read_error",
    "cache_poison",
    "ip_kill",
    "ic_failure",
    "machine_crash",
    "torn_page",
    "log_tail_corrupt",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault class armed at one site (or every site, ``site="*"``).

    Only the fields relevant to the spec's ``kind`` are consulted; the
    rest keep their defaults so specs stay trivially serializable.
    """

    kind: str
    #: Injection site: a ring name (``"inner-ring"``/``"outer-ring"``),
    #: ``"disk<N>"``, a query-tree name for ``ic_failure`` — or ``"*"``
    #: to match every site of this kind.
    site: str = "*"
    #: Per-opportunity fault probability in [0, 1].
    rate: float = 0.0
    #: Bounded-retry budget for ring retransmission / disk retries.
    max_retries: int = 8
    #: Ring retransmission timeout for a *dropped* packet (ms); the
    #: n-th retry waits ``timeout_ms * backoff**n``.
    timeout_ms: float = 4.0
    backoff: float = 2.0
    #: Receiver NAK turnaround for a *corrupted* packet (ms) — the
    #: checksum fails on arrival, so retransmission starts much sooner
    #: than a silent drop's timeout.
    nak_delay_ms: float = 0.05
    #: Spacing between disk read retries (ms).
    retry_delay_ms: float = 1.0
    #: Explicit IP kill schedule for ``ip_kill``: ((ip_id, at_ms), ...).
    kills: Tuple[Tuple[int, float], ...] = ()
    #: Window for rate-drawn ``ip_kill`` times / ``ic_failure`` strikes.
    window_ms: float = 1000.0
    #: Delay after query activation before an armed ``ic_failure`` hits.
    at_ms: float = 250.0
    #: Failover budget per query for ``ic_failure``.
    max_failovers: int = 3

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultError(f"{self.kind}: rate must be in [0, 1], got {self.rate}")
        if self.max_retries < 0:
            raise FaultError(f"{self.kind}: max_retries must be >= 0")
        if self.timeout_ms <= 0 or self.nak_delay_ms <= 0 or self.retry_delay_ms <= 0:
            raise FaultError(f"{self.kind}: recovery delays must be positive")
        if self.backoff < 1.0:
            raise FaultError(f"{self.kind}: backoff must be >= 1")
        if self.kills and self.kind != "ip_kill":
            raise FaultError(f"{self.kind}: explicit kills apply only to ip_kill")
        if self.max_failovers < 0:
            raise FaultError(f"{self.kind}: max_failovers must be >= 0")
        # Tolerate list-of-lists from JSON round-trips.
        object.__setattr__(
            self, "kills", tuple((int(ip), float(at)) for ip, at in self.kills)
        )

    @property
    def armed(self) -> bool:
        """True when this spec can actually strike."""
        return self.rate > 0.0 or bool(self.kills)


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the full set of armed fault specs for one run."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        seen: Dict[Tuple[str, str], FaultSpec] = {}
        for spec in self.specs:
            key = (spec.kind, spec.site)
            if key in seen:
                raise FaultError(
                    f"duplicate spec for kind={spec.kind!r} site={spec.site!r}"
                )
            seen[key] = spec

    @property
    def armed(self) -> bool:
        """True when at least one spec can strike (binds an injector)."""
        return any(spec.armed for spec in self.specs)

    def spec(self, kind: str, site: str = "*") -> Optional[FaultSpec]:
        """The spec governing ``kind`` at ``site``; exact site wins over "*"."""
        fallback: Optional[FaultSpec] = None
        for candidate in self.specs:
            if candidate.kind != kind:
                continue
            if candidate.site == site:
                return candidate
            if candidate.site == "*":
                fallback = candidate
        return fallback

    # -- serialization (sweep workers, experiment JSON) ----------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict; round-trips through :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "specs": [asdict(spec) for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        specs = tuple(FaultSpec(**spec) for spec in data.get("specs", ()))  # type: ignore[arg-type]
        return cls(seed=int(data.get("seed", 0)), specs=specs)  # type: ignore[call-overload]

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

