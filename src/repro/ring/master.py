"""The master controller (MC) — Section 4.1.

The MC "serves a number of functions": host communication (the query
queue), admission with concurrency checks, distribution of instructions to
ICs over the inner ring, arbitration of the IP pool ("the ICs compete with
each other for the processors in the IP pool"), and disk-cache allocation.

IP arbitration policy: grants go one at a time to the requesting IC
holding the fewest IPs ("in a manner which maximizes system performance by
insuring that processors are distributed across all nodes in the query
tree").  One pool slot is reserved for instructions whose operands are all
complete — such an instruction always runs to completion with a single IP,
which guarantees machine-wide progress (no allocation deadlock through
producer/consumer chains).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, TYPE_CHECKING

from repro.errors import MachineError
from repro.ring.concurrency import LockManager, LockRequest
from repro.query.tree import QueryTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.ring.controller import InstructionController
    from repro.ring.machine import RingMachine
    from repro.ring.processor import InstructionProcessor


class MasterController:
    """The MC: query queue, admission, and IP-pool arbitration."""

    def __init__(self, machine: "RingMachine"):
        self.machine = machine
        sanitizer = machine.sim.sanitizer
        self.locks = LockManager(
            witness=sanitizer.witness if sanitizer is not None else None
        )
        self.query_queue: Deque[QueryTree] = deque()
        self.free_ips: List["InstructionProcessor"] = []
        #: Outstanding IP wants per IC id.
        self.wants: Dict[int, int] = {}
        self.queries_admitted = 0
        self.queries_completed = 0

    # ------------------------------------------------------------------ admission

    def enqueue(self, tree: QueryTree) -> None:
        """A query arrived from the host."""
        self.query_queue.append(tree)

    def try_admit(self) -> None:
        """Admit queued queries in FIFO order while resources allow.

        A query needs (a) its whole lock set and (b) one free IC per
        operator node.  FIFO admission: the head blocks the tail, so a
        heavy writer cannot be starved.
        """
        while self.query_queue:
            tree = self.query_queue[0]
            request = self.machine.lock_request_for(tree)
            needed_ics = len(tree.operators())
            if needed_ics > self.machine.total_ics:
                raise MachineError(
                    f"query {tree.name} needs {needed_ics} ICs, machine has "
                    f"{self.machine.total_ics}"
                )
            if needed_ics > self.machine.free_ic_count():
                return
            if not self.locks.try_acquire(request):
                return
            self.query_queue.popleft()
            self.queries_admitted += 1
            self.machine.activate_query(tree)

    def query_finished(self, tree: QueryTree) -> None:
        """Root instruction done: release locks and retry admission."""
        self.locks.release(tree.name)
        self.queries_completed += 1
        self.try_admit()

    # ------------------------------------------------------------------ IP pool

    def add_free_ip(self, ip: "InstructionProcessor") -> None:
        """An IP returned to the pool (startup or RELEASE_IP)."""
        self.free_ips.append(ip)
        self.grant_loop()

    def request_ips(self, ic: "InstructionController", count: int) -> None:
        """REQUEST_IPS control packet from an IC."""
        self.wants[ic.ic_id] = self.wants.get(ic.ic_id, 0) + count
        self.grant_loop()
        if not self.free_ips:
            # Pool exhausted: ask hoarding ICs to return surplus idle IPs.
            for other in self.machine.active_ics():
                if other is not ic and not other.done and not other.dead:
                    other.release_surplus_ips()

    def grant_loop(self) -> None:
        """Hand out free IPs one at a time, least-loaded IC first.

        The last free IP is reserved for "ready" instructions (operands
        all complete), which guarantees progress; see the module docstring.
        """
        while self.free_ips:
            candidates = [
                self.machine.ic_by_id(ic_id)
                for ic_id, want in self.wants.items()
                if want > 0
            ]
            candidates = [
                ic for ic in candidates if ic is not None and not ic.done and not ic.dead
            ]
            if not candidates:
                return
            if len(self.free_ips) == 1:
                ready = [
                    ic for ic in candidates if all(op.complete for op in ic.operands)
                ]
                if not ready:
                    return
                candidates = ready
            chosen = min(candidates, key=lambda ic: (len(ic.my_ips), ic.ic_id))
            self.wants[chosen.ic_id] -= 1
            if self.wants[chosen.ic_id] <= 0:
                del self.wants[chosen.ic_id]
            ip = self.free_ips.pop(0)
            self.machine.mc_grant_ip(chosen, ip)

    def cancel_wants(self, ic: "InstructionController") -> None:
        """Drop an IC's outstanding requests (its instruction finished)."""
        self.wants.pop(ic.ic_id, None)

    def has_starving_requests(self, other_than: "InstructionController") -> bool:
        """True when some other IC wants IPs and the pool is empty.

        ICs consult this to decide whether to return surplus idle IPs
        early instead of hoarding them against possible future input.
        """
        if self.free_ips:
            return False
        return any(
            want > 0 and ic_id != other_than.ic_id for ic_id, want in self.wants.items()
        )

    @property
    def free_ip_count(self) -> int:
        """IPs currently in the pool."""
        return len(self.free_ips)
