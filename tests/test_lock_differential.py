"""The lock manager against the entry-object table it replaced.

:class:`ReferenceLockManager` below is the previous lock table, kept here
as the reference: one ``_LockEntry`` (holders dict + wait queue) per
object, built on every grant.  Hypothesis drives the same random script —
S/X acquires, upgrades, releases and victim aborts across two managers
sharing one deadlock detector — through both, and every observable must be
identical: what each acquire returned, the order wait events settle in and
how, the wait and victim hooks, the holders and queue depth of every
object, each transaction's held locks and the waits-for edges.
"""

from typing import Any, Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DeadlockAbort, LockError
from repro.sim import Engine
from repro.storage.deadlock import DeadlockDetector
from repro.storage.lock_manager import LockManager, LockMode, LockRequest


class _LockEntry:
    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: Dict[Any, LockMode] = {}
        self.queue: List[LockRequest] = []

    def conflicts_with_holders(self, txn: Any, mode: LockMode) -> List[Any]:
        return [
            holder
            for holder, held in self.holders.items()
            if holder is not txn and not held.compatible_with(mode)
        ]


class ReferenceLockManager:
    """The entry-object lock table, logic unchanged."""

    def __init__(self, engine, node_id, detector, on_wait=None,
                 on_deadlock=None):
        self.engine = engine
        self.node_id = node_id
        self.detector = detector
        self.on_wait = on_wait
        self.on_deadlock = on_deadlock
        self._table: Dict[int, _LockEntry] = {}
        self._held_by_txn: Dict[Any, set] = {}
        self._queued_by_txn: Dict[Any, set] = {}

    def acquire(self, txn, oid, mode):
        entry = self._table.get(oid)
        if entry is None:
            self._table[oid] = entry = _LockEntry()
            entry.holders[txn] = mode
            held_oids = self._held_by_txn.get(txn)
            if held_oids is None:
                held_oids = self._held_by_txn[txn] = set()
            held_oids.add(oid)
            return None
        if entry.queue and any(request.txn is txn for request in entry.queue):
            raise LockError("second outstanding request")
        held = entry.holders.get(txn)
        if held is not None and held.covers(mode):
            return None
        upgrade = held is LockMode.SHARED and mode is LockMode.EXCLUSIVE
        if self._grantable(entry, txn, mode, upgrade=upgrade):
            self._grant(entry, txn, oid, mode)
            return None
        event = self.engine.event(name=f"lock({self.node_id},{oid})")
        request = LockRequest(txn=txn, mode=mode, event=event, upgrade=upgrade)
        if upgrade:
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

    def _grantable(self, entry, txn, mode, upgrade, before_request=None):
        if entry.conflicts_with_holders(txn, mode):
            return False
        if upgrade:
            return True
        for queued in entry.queue:
            if queued is before_request:
                break
            if queued.txn is not txn and not queued.mode.compatible_with(mode):
                return False
        return True

    def _grant(self, entry, txn, oid, mode):
        current = entry.holders.get(txn)
        if current is None or mode.covers(current):
            entry.holders[txn] = mode
        self._held_by_txn.setdefault(txn, set()).add(oid)

    def release_all(self, txn):
        oids = self._held_by_txn.pop(txn, ())
        for oid in oids:
            entry = self._table.get(oid)
            if entry is None:
                continue
            entry.holders.pop(txn, None)
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
                del table[oid]

    def _promote_waiters(self, oid):
        entry = self._table.get(oid)
        if entry is None:
            return
        progressed = True
        while progressed:
            progressed = False
            for request in list(entry.queue):
                if self._grantable(entry, request.txn, request.mode,
                                   upgrade=request.upgrade,
                                   before_request=request):
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

    def _note_queued(self, txn, oid):
        queued = self._queued_by_txn.get(txn)
        if queued is None:
            queued = self._queued_by_txn[txn] = set()
        queued.add(oid)

    def _note_dequeued(self, txn, oid):
        queued = self._queued_by_txn.get(txn)
        if queued is not None:
            queued.discard(oid)
            if not queued:
                del self._queued_by_txn[txn]

    def _blockers_of(self, entry, request):
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

    def _register_wait(self, entry, oid, request):
        blockers = self._blockers_of(entry, request)
        self.detector.set_waits(request.txn, blockers, manager=self, oid=oid,
                                request=request)

    def _refresh_waits(self, entry, oid):
        for request in entry.queue:
            blockers = self._blockers_of(entry, request)
            self.detector.set_waits(request.txn, blockers, manager=self, oid=oid,
                                    request=request)

    def cancel_request(self, oid, request, exc):
        entry = self._table.get(oid)
        if entry is None or request not in entry.queue:
            raise LockError(f"request for oid {oid} not queued")
        entry.queue.remove(request)
        self._note_dequeued(request.txn, oid)
        self.detector.clear_wait(request.txn, self, oid)
        if request.event.pending:
            request.event.fail(exc)
        self._promote_waiters(oid)

    def _abort_victim(self, victim):
        if self.on_deadlock is not None:
            self.on_deadlock(victim)
        self.detector.abort_waiting_txn(victim, DeadlockAbort())

    def is_free(self, oid):
        return oid not in self._table

    def holders(self, oid):
        entry = self._table.get(oid)
        return dict(entry.holders) if entry else {}

    def queue_length(self, oid):
        entry = self._table.get(oid)
        return len(entry.queue) if entry else 0

    def total_queued(self):
        return sum(len(entry.queue) for entry in self._table.values())

    def locks_held(self, txn):
        return set(self._held_by_txn.get(txn, set()))


class FakeTxn:
    def __init__(self, txn_id: int):
        self.txn_id = txn_id

    def __repr__(self):
        return f"T{self.txn_id}"


TXNS, MANAGERS, OIDS = 5, 2, 3
_MODES = st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])
_TXN = st.integers(0, TXNS - 1)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), _TXN, st.integers(0, MANAGERS - 1),
                  st.integers(0, OIDS - 1), _MODES),
        st.tuples(st.just("release"), _TXN, st.integers(0, MANAGERS - 1)),
        st.tuples(st.just("release-everywhere"), _TXN),
        st.tuples(st.just("victim"), _TXN),
    ),
    max_size=60,
)


def _play(manager_class, steps) -> List[Any]:
    """Run ``steps`` on two managers sharing one detector; return the log
    of every observable, one state snapshot after each step."""
    engine, detector = Engine(), DeadlockDetector()
    txns = [FakeTxn(i + 1) for i in range(TXNS)]
    log: List[Any] = []
    managers = [
        manager_class(
            engine, m, detector,
            on_wait=lambda txn, m=m: log.append(("wait", m, txn.txn_id)),
            on_deadlock=lambda txn, m=m: log.append(("victim", m, txn.txn_id)),
        )
        for m in range(MANAGERS)
    ]

    def woke(m: int, t: int, oid: int):
        def callback(event):
            exc: Optional[BaseException] = event.exception
            log.append(("wake", m, t, oid, None if exc is None else str(exc)))
        return callback

    for step in steps:
        kind, t = step[0], step[1]
        txn = txns[t]
        if kind == "acquire":
            _, _, m, oid, mode = step
            try:
                event = managers[m].acquire(txn, oid, mode)
            except LockError:
                log.append(("refused", m, t, oid))
            else:
                log.append(("acquire", m, t, oid, mode, event is None))
                if event is not None:
                    event.add_callback(woke(m, t, oid))
        elif kind == "release":
            managers[step[2]].release_all(txn)
        elif kind == "release-everywhere":
            for manager in managers:
                manager.release_all(txn)
        else:
            detector.abort_waiting_txn(txn, DeadlockAbort("picked"))
        log.append((
            [
                (oid, {h.txn_id: mode for h, mode in manager.holders(oid).items()},
                 manager.queue_length(oid), manager.is_free(oid))
                for manager in managers for oid in range(OIDS)
            ],
            [sorted(manager.locks_held(txn)) for manager in managers
             for txn in txns],
            [manager.total_queued() for manager in managers],
            sorted(
                (waiter.txn_id, sorted(b.txn_id for b in blockers))
                for waiter, blockers in detector.edges().items()
            ),
            detector.cycles_found,
        ))
    return log


@settings(max_examples=400, deadline=None)
@given(_STEPS)
def test_entry_free_table_matches_the_entry_object_table(steps):
    assert _play(LockManager, steps) == _play(ReferenceLockManager, steps)


S, X = LockMode.SHARED, LockMode.EXCLUSIVE


@pytest.mark.parametrize("steps", [
    # two readers, a queued writer and reader, an upgrade jumping to the
    # head (the queued reader now waits on the upgrader too), then a
    # second upgrade closing a cycle: the youngest is the victim
    [
        ("acquire", 0, 0, 0, S), ("acquire", 1, 0, 0, S),
        ("acquire", 2, 0, 0, X), ("acquire", 3, 0, 0, S),
        ("acquire", 0, 0, 0, X), ("acquire", 1, 0, 0, X),
        ("release-everywhere", 1), ("release", 0, 0), ("victim", 2),
    ],
    # one transaction queued at two objects of one manager, in the
    # opposite order to the one their entries were created in: giving up
    # fails its waits in creation order
    [
        ("acquire", 0, 0, 0, X), ("acquire", 0, 0, 1, X),
        ("acquire", 1, 0, 1, X), ("acquire", 1, 0, 0, S),
        ("acquire", 2, 0, 1, S), ("release", 1, 0), ("release", 0, 0),
    ],
    # a cycle across the two managers, broken by its victim
    [
        ("acquire", 0, 0, 0, X), ("acquire", 1, 1, 0, X),
        ("acquire", 0, 1, 0, X), ("acquire", 1, 0, 0, S),
        ("release-everywhere", 1), ("release-everywhere", 0),
    ],
], ids=["upgrade-to-head", "abort-in-creation-order", "cross-node-cycle"])
def test_literal_scripts(steps):
    log = _play(LockManager, steps)
    assert log == _play(ReferenceLockManager, steps)
    assert any(entry[0] == "wake" for entry in log)
