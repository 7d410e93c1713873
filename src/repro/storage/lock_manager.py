"""Strict two-phase locking with FIFO wait queues.

The eager analysis in the paper (equations 2-5 and 9-12) assumes a locking
scheduler: conflicting accesses wait, and cyclic waits are deadlocks that
abort a victim.  This lock manager implements that scheduler for one node.

Key points:

* Modes are SHARED / EXCLUSIVE with the usual compatibility matrix.
* Waiters queue FIFO; a request is granted only when no conflicting holder
  exists *and* no conflicting earlier request is still queued (no barging),
  matching the fairness assumed by the analytic wait model.
* Waiting is expressed as a :class:`~repro.sim.events.SimEvent`: ``acquire``
  returns ``None`` when granted immediately, otherwise an event the calling
  process must ``yield``.  The deadlock detector aborts a victim by *failing*
  that event with :class:`~repro.exceptions.DeadlockAbort`.
* All waits are registered with a (possibly shared) waits-for graph so that
  distributed eager transactions can form cross-node cycles and still be
  detected (the paper's eager scheme holds locks at every replica).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import DeadlockAbort, LockError
from repro.sim.events import SimEvent
from repro.sim.protocol import EngineProtocol


class LockMode(enum.Enum):
    """Lock modes; EXCLUSIVE conflicts with everything."""

    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED

    def covers(self, other: "LockMode") -> bool:
        """True if holding ``self`` satisfies a request for ``other``."""
        return self is LockMode.EXCLUSIVE or other is LockMode.SHARED


@dataclass
class LockRequest:
    """A queued lock request by one transaction."""

    txn: Any
    mode: LockMode
    event: SimEvent
    upgrade: bool = False


class _LockEntry:
    """State of one lockable object: current holders plus the wait queue."""

    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: Dict[Any, LockMode] = {}
        self.queue: List[LockRequest] = []

    def conflicts_with_holders(self, txn: Any, mode: LockMode) -> List[Any]:
        """Holders (other than txn) whose mode conflicts with ``mode``."""
        return [
            holder
            for holder, held in self.holders.items()
            if holder is not txn and not held.compatible_with(mode)
        ]


class LockManager:
    """Lock table for one node, wired to a shared deadlock detector.

    Args:
        engine: the simulation engine (used to create wait events).
        node_id: owning node, for diagnostics.
        detector: shared :class:`~repro.storage.deadlock.DeadlockDetector`.
        on_wait: optional metrics hook called once per blocked request.
        on_deadlock: optional metrics hook called once per chosen victim.
        telemetry: optional :class:`~repro.obs.samplers.Telemetry` handle
            (the owning system registers an aggregate wait-queue-depth
            gauge over all nodes; the handle is kept here so per-node
            probes can be added without re-plumbing).
    """

    def __init__(
        self,
        engine: EngineProtocol,
        node_id: int,
        detector,
        on_wait: Optional[Callable[[Any], None]] = None,
        on_deadlock: Optional[Callable[[Any], None]] = None,
        telemetry=None,
    ):
        self.engine = engine
        self.node_id = node_id
        self.detector = detector
        self.on_wait = on_wait
        self.on_deadlock = on_deadlock
        self.telemetry = telemetry
        self._table: Dict[int, _LockEntry] = {}
        self._held_by_txn: Dict[Any, set] = {}
        # txns with queued (blocked) requests, and on which objects: lets
        # release_all skip the whole-table scan in the common no-wait case
        self._queued_by_txn: Dict[Any, set] = {}

    # ------------------------------------------------------------------ #
    # acquisition
    # ------------------------------------------------------------------ #

    def acquire(self, txn: Any, oid: int, mode: LockMode) -> Optional[SimEvent]:
        """Request ``mode`` on ``oid`` for ``txn``.

        Returns ``None`` when the lock is granted immediately; otherwise a
        :class:`SimEvent` that the caller must yield.  The event is failed
        with :class:`DeadlockAbort` if the transaction is chosen as a
        deadlock victim while waiting.

        Usage contract: a transaction has at most one outstanding request
        per object at this node — it must wait for (or be aborted out of)
        a pending request before issuing another for the same object.
        Violations raise :class:`LockError` rather than corrupting the
        queue.  (Concurrent requests for the same object at *different*
        nodes — the parallel-update eager mode — are fine.)
        """
        entry = self._table.get(oid)
        if entry is None:
            # uncontended fast path: first touch of a free object — grant
            # without building queues or consulting the deadlock detector
            # (entries are reaped once empty, so "absent" means "free")
            self._table[oid] = entry = _LockEntry()
            entry.holders[txn] = mode
            held_oids = self._held_by_txn.get(txn)
            if held_oids is None:
                held_oids = self._held_by_txn[txn] = set()
            held_oids.add(oid)
            return None
        if entry.queue and any(request.txn is txn for request in entry.queue):
            raise LockError(
                f"transaction {txn!r} already has a queued request for "
                f"object {oid} at node {self.node_id}"
            )
        held = entry.holders.get(txn)

        if held is not None and held.covers(mode):
            return None  # re-entrant or already stronger

        upgrade = held is LockMode.SHARED and mode is LockMode.EXCLUSIVE
        if self._grantable(entry, txn, mode, upgrade=upgrade):
            self._grant(entry, txn, oid, mode)
            return None

        event = self.engine.event(name=f"lock({self.node_id},{oid})")
        request = LockRequest(txn=txn, mode=mode, event=event, upgrade=upgrade)
        if upgrade:
            # upgrades go to the head of the queue to avoid upgrade starvation
            entry.queue.insert(0, request)
        else:
            entry.queue.append(request)
        self._note_queued(txn, oid)
        if self.on_wait is not None:
            self.on_wait(txn)
        self._register_wait(entry, oid, request)
        victim = self.detector.find_victim(txn)
        if victim is not None:
            self._abort_victim(victim)
        return event

    def _grantable(
        self,
        entry: _LockEntry,
        txn: Any,
        mode: LockMode,
        upgrade: bool,
        before_request: Optional[LockRequest] = None,
    ) -> bool:
        """Can this request be granted now?

        ``before_request`` marks the queue position of an already-enqueued
        request being re-checked at promotion time: only requests *ahead of*
        it can block it.  For brand-new requests (not yet queued) the whole
        queue is ahead.
        """
        if entry.conflicts_with_holders(txn, mode):
            return False
        if upgrade:
            return True  # sole conflicting holder is txn itself; jump queue
        # no barging past earlier waiters with conflicting modes
        for queued in entry.queue:
            if queued is before_request:
                break
            if queued.txn is not txn and not queued.mode.compatible_with(mode):
                return False
        return True

    def _grant(self, entry: _LockEntry, txn: Any, oid: int, mode: LockMode) -> None:
        current = entry.holders.get(txn)
        if current is None or mode.covers(current):
            entry.holders[txn] = mode
        self._held_by_txn.setdefault(txn, set()).add(oid)

    # ------------------------------------------------------------------ #
    # release
    # ------------------------------------------------------------------ #

    def release_all(self, txn: Any) -> None:
        """Release every lock ``txn`` holds and cancel its queued requests.

        Called at commit and abort (strict 2PL: nothing is released early).
        """
        oids = self._held_by_txn.pop(txn, ())
        for oid in oids:
            entry = self._table.get(oid)
            if entry is None:
                continue
            entry.holders.pop(txn, None)
        # drop any still-queued requests from this txn (abort path); their
        # wait events fail so concurrently-parked requesters (parallel-update
        # transactions) wake up instead of leaking.  The queued-by-txn index
        # makes the common case (nothing queued) free; when something *is*
        # queued the table is walked in insertion order, exactly as before,
        # so promotion order is unchanged.
        if self._queued_by_txn.pop(txn, None):
            for oid, entry in list(self._table.items()):
                dropped = [req for req in entry.queue if req.txn is txn]
                if not dropped:
                    continue
                entry.queue[:] = [req for req in entry.queue if req.txn is not txn]
                for request in dropped:
                    self.detector.clear_wait(txn, self, oid)
                    if request.event.pending:
                        request.event.fail(DeadlockAbort("owner aborted"))
                self._promote_waiters(oid)
        self.detector.clear_waits(txn)
        table = self._table
        for oid in oids:
            entry = table.get(oid)
            if entry is None:
                continue
            if entry.queue:
                self._promote_waiters(oid)
            elif not entry.holders:
                del table[oid]  # nobody waits: all promotion would do is reap

    def _promote_waiters(self, oid: int) -> None:
        """Grant every queued request that has become grantable, in order."""
        entry = self._table.get(oid)
        if entry is None:
            return
        progressed = True
        while progressed:
            progressed = False
            for request in list(entry.queue):
                if self._grantable(
                    entry,
                    request.txn,
                    request.mode,
                    upgrade=request.upgrade,
                    before_request=request,
                ):
                    entry.queue.remove(request)
                    self._note_dequeued(request.txn, oid)
                    self._grant(entry, request.txn, oid, request.mode)
                    self.detector.clear_wait(request.txn, self, oid)
                    request.event.succeed()
                    progressed = True
                    break
        self._refresh_waits(entry, oid)
        if not entry.holders and not entry.queue:
            self._table.pop(oid, None)

    def _note_queued(self, txn: Any, oid: int) -> None:
        queued = self._queued_by_txn.get(txn)
        if queued is None:
            queued = self._queued_by_txn[txn] = set()
        queued.add(oid)

    def _note_dequeued(self, txn: Any, oid: int) -> None:
        queued = self._queued_by_txn.get(txn)
        if queued is not None:
            queued.discard(oid)
            if not queued:
                del self._queued_by_txn[txn]

    # ------------------------------------------------------------------ #
    # waits-for bookkeeping
    # ------------------------------------------------------------------ #

    def _blockers_of(self, entry: _LockEntry, request: LockRequest) -> List[Any]:
        blockers = entry.conflicts_with_holders(request.txn, request.mode)
        if not request.upgrade:
            for queued in entry.queue:
                if queued is request:
                    break
                if queued.txn is not request.txn and not queued.mode.compatible_with(
                    request.mode
                ):
                    blockers.append(queued.txn)
        return blockers

    def _register_wait(self, entry: _LockEntry, oid: int, request: LockRequest) -> None:
        blockers = self._blockers_of(entry, request)
        self.detector.set_waits(request.txn, blockers, manager=self, oid=oid,
                                request=request)

    def _refresh_waits(self, entry: _LockEntry, oid: int) -> None:
        """Recompute waits-for edges for all still-queued requests on ``oid``.

        Keeps the graph accurate after holders change, so detection never
        chases stale edges.
        """
        for request in entry.queue:
            blockers = self._blockers_of(entry, request)
            self.detector.set_waits(request.txn, blockers, manager=self, oid=oid,
                                    request=request)

    # ------------------------------------------------------------------ #
    # victim handling
    # ------------------------------------------------------------------ #

    def cancel_request(self, oid: int, request: LockRequest, exc: BaseException) -> None:
        """Remove a queued request and fail its event (victim abort path)."""
        entry = self._table.get(oid)
        if entry is None or request not in entry.queue:
            raise LockError(f"request for oid {oid} not queued")
        entry.queue.remove(request)
        self._note_dequeued(request.txn, oid)
        self.detector.clear_wait(request.txn, self, oid)
        if request.event.pending:
            request.event.fail(exc)
        self._promote_waiters(oid)

    def _abort_victim(self, victim: Any) -> None:
        if self.on_deadlock is not None:
            self.on_deadlock(victim)
        self.detector.abort_waiting_txn(victim, DeadlockAbort())

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def is_free(self, oid: int) -> bool:
        """Does nobody hold or wait for ``oid``?  (Entries are reaped once
        empty, so an absent entry is a free object.)"""
        return oid not in self._table

    def holders(self, oid: int) -> Dict[Any, LockMode]:
        entry = self._table.get(oid)
        return dict(entry.holders) if entry else {}

    def queue_length(self, oid: int) -> int:
        entry = self._table.get(oid)
        return len(entry.queue) if entry else 0

    def total_queued(self) -> int:
        """Blocked lock requests across every object (wait-queue depth)."""
        return sum(len(entry.queue) for entry in self._table.values())

    def locks_held(self, txn: Any) -> set:
        return set(self._held_by_txn.get(txn, set()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LockManager node={self.node_id} objects={len(self._table)}>"
