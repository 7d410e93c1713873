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
        return self is _SHARED and other is _SHARED

    def covers(self, other: "LockMode") -> bool:
        """True if holding ``self`` satisfies a request for ``other``."""
        return self is _EXCLUSIVE or other is _SHARED


_SHARED, _EXCLUSIVE = LockMode.SHARED, LockMode.EXCLUSIVE


@dataclass
class LockRequest:
    """A queued lock request by one transaction."""

    txn: Any
    mode: LockMode
    event: SimEvent
    upgrade: bool = False


class LockManager:
    """Lock table for one node, wired to a shared deadlock detector.

    The table is two maps by object: ``_holders`` (oid -> {txn: mode}),
    kept while anybody holds *or waits for* it, and ``_queues`` (oid ->
    FIFO :class:`LockRequest` list), kept only while somebody waits.  An
    uncontended grant is one holders entry plus the held-oid entry.

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
        # _holders keeps the order entries were created in: the abort path
        # of release_all walks it, so promotion order is creation order
        self._holders: Dict[int, Dict[Any, LockMode]] = {}
        self._queues: Dict[int, List[LockRequest]] = {}
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
        holders = self._holders.get(oid)
        if holders is None:
            # uncontended: first touch of a free object — grant without a
            # queue or the deadlock detector (absent means free)
            self._holders[oid] = {txn: mode}
            held_oids = self._held_by_txn.get(txn)
            if held_oids is None:
                self._held_by_txn[txn] = {oid}
            else:
                held_oids.add(oid)
            return None
        queue = self._queues.get(oid)
        if queue is not None and any(request.txn is txn for request in queue):
            raise LockError(
                f"transaction {txn!r} already has a queued request for "
                f"object {oid} at node {self.node_id}"
            )
        held = holders.get(txn)

        if held is not None and held.covers(mode):
            return None  # re-entrant or already stronger

        upgrade = held is _SHARED and mode is _EXCLUSIVE
        if self._grantable(holders, queue, txn, mode, upgrade=upgrade):
            self._grant(holders, txn, oid, mode)
            return None

        event = self.engine.event(name=f"lock({self.node_id},{oid})")
        request = LockRequest(txn=txn, mode=mode, event=event, upgrade=upgrade)
        if queue is None:
            queue = self._queues[oid] = [request]
        elif upgrade:
            # upgrades go to the head of the queue to avoid upgrade starvation
            queue.insert(0, request)
        else:
            queue.append(request)
        self._note_queued(txn, oid)
        if self.on_wait is not None:
            self.on_wait(txn)
        self._register_wait(oid, request)
        victim = self.detector.find_victim(txn)
        if victim is not None:
            self._abort_victim(victim)
        return event

    def _grantable(self, holders: Dict[Any, LockMode],
                   queue: Optional[List[LockRequest]], txn: Any, mode: LockMode,
                   upgrade: bool,
                   before_request: Optional[LockRequest] = None) -> bool:
        """Can this request be granted now?

        ``before_request`` marks the queue position of an already-enqueued
        request being re-checked at promotion time: only requests *ahead of*
        it can block it.  For brand-new requests (not yet queued) the whole
        queue is ahead.
        """
        for holder, held in holders.items():
            if holder is not txn and not held.compatible_with(mode):
                return False
        if upgrade or not queue:
            return True  # an upgrade's sole conflict is txn itself
        # no barging past earlier waiters with conflicting modes
        for queued in queue:
            if queued is before_request:
                break
            if queued.txn is not txn and not queued.mode.compatible_with(mode):
                return False
        return True

    def _grant(self, holders: Dict[Any, LockMode], txn: Any, oid: int,
               mode: LockMode) -> None:
        current = holders.get(txn)
        if current is None or mode.covers(current):
            holders[txn] = mode
        self._held_by_txn.setdefault(txn, set()).add(oid)

    # ------------------------------------------------------------------ #
    # release
    # ------------------------------------------------------------------ #

    def release_all(self, txn: Any) -> None:
        """Release every lock ``txn`` holds and cancel its queued requests.

        Called at commit and abort (strict 2PL: nothing is released early).
        """
        oids = self._held_by_txn.pop(txn, ())
        holders_by_oid, queues = self._holders, self._queues
        contended = False
        for oid in oids:
            holders = holders_by_oid.get(oid)
            if holders is None:
                continue
            holders.pop(txn, None)
            if oid in queues:
                contended = True
            elif not holders:
                del holders_by_oid[oid]  # nobody waits: promotion would reap
        # drop any still-queued requests from this txn (abort path); their
        # wait events fail so concurrently-parked requesters (parallel-update
        # transactions) wake up instead of leaking.  The queued-by-txn index
        # makes the common case (nothing queued) free; when something *is*
        # queued the table is walked in entry-creation order, so promotion
        # order does not depend on which object was waited for first.
        if self._queued_by_txn.pop(txn, None):
            for oid in list(holders_by_oid):
                dropped = [req for req in queues.get(oid, ()) if req.txn is txn]
                if not dropped:
                    continue
                queue = queues[oid]
                queue[:] = [req for req in queue if req.txn is not txn]
                if not queue:
                    del queues[oid]
                for request in dropped:
                    self.detector.clear_wait(txn, self, oid)
                    if request.event.pending:
                        request.event.fail(DeadlockAbort("owner aborted"))
                self._promote_waiters(oid)
        self.detector.clear_waits(txn)
        if contended:
            for oid in oids:
                if oid in queues:
                    self._promote_waiters(oid)

    def _promote_waiters(self, oid: int) -> None:
        """Grant every queued request that has become grantable, in order,
        and reap the object's entries once nobody holds or waits."""
        holders = self._holders.get(oid)
        if holders is None:
            return
        queue = self._queues.get(oid)
        if queue is not None:
            progressed = True
            while progressed:
                progressed = False
                for request in list(queue):
                    if self._grantable(holders, queue, request.txn, request.mode,
                                       request.upgrade, request):
                        queue.remove(request)
                        self._note_dequeued(request.txn, oid)
                        self._grant(holders, request.txn, oid, request.mode)
                        self.detector.clear_wait(request.txn, self, oid)
                        request.event.succeed()
                        progressed = True
                        break
            if queue:
                # holders changed: no waits-for edge may go stale
                for request in queue:
                    self._register_wait(oid, request)
                return
            del self._queues[oid]
        if not holders:
            del self._holders[oid]

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

    def _register_wait(self, oid: int, request: LockRequest) -> None:
        """(Re)state ``request``'s waits-for edges: the conflicting holders
        and, unless it upgrades, the conflicting requests ahead of it."""
        txn, mode = request.txn, request.mode
        blockers = [
            holder
            for holder, held in self._holders[oid].items()
            if holder is not txn and not held.compatible_with(mode)
        ]
        if not request.upgrade:
            for queued in self._queues[oid]:
                if queued is request:
                    break
                if queued.txn is not txn and not queued.mode.compatible_with(mode):
                    blockers.append(queued.txn)
        self.detector.set_waits(txn, blockers, manager=self, oid=oid,
                                request=request)

    # ------------------------------------------------------------------ #
    # victim handling
    # ------------------------------------------------------------------ #

    def cancel_request(self, oid: int, request: LockRequest, exc: BaseException) -> None:
        """Remove a queued request and fail its event (victim abort path)."""
        queue = self._queues.get(oid)
        if queue is None or request not in queue:
            raise LockError(f"request for oid {oid} not queued")
        queue.remove(request)
        if not queue:
            del self._queues[oid]
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
        """Does nobody hold or wait for ``oid``?"""
        return oid not in self._holders

    def holders(self, oid: int) -> Dict[Any, LockMode]:
        return dict(self._holders.get(oid, ()))

    def queue_length(self, oid: int) -> int:
        return len(self._queues.get(oid, ()))

    def total_queued(self) -> int:
        """Blocked lock requests across every object (wait-queue depth)."""
        return sum(map(len, self._queues.values()))

    def locks_held(self, txn: Any) -> set:
        return set(self._held_by_txn.get(txn, ()))

    def holding_transactions(self) -> int:
        """How many transactions hold at least one lock here."""
        return len(self._held_by_txn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LockManager node={self.node_id} objects={len(self._holders)}>"
