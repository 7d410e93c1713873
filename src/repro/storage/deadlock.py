"""Waits-for graph and deadlock detection.

"A deadlock consists of a cycle of transactions waiting for one another"
(paper, section 3).  The detector maintains the global waits-for graph —
shared by the lock managers of *all* nodes, because an eager transaction
holds locks at every replica and a cycle can span nodes — and runs a DFS
from each new waiter.  When a cycle is found, a victim is chosen (youngest
by default) and its pending lock requests are failed with
:class:`~repro.exceptions.DeadlockAbort`.

A transaction may wait at several lock managers at once (the footnote-2
parallel-update eager variant issues one replica update per node
concurrently), so waits are keyed by ``(manager, oid)`` and a transaction's
outgoing edges are the union over its live waits.

Hot-path design: the union is *not* rebuilt per probe.  The detector keeps
an aggregated adjacency map ``waiter -> {blocker: refcount}`` updated
incrementally as waits are set and cleared, so ``blockers_of`` — called for
every node the DFS visits — is a dict view instead of a set-union loop.
Managers are keyed by a stable small-int id handed out at registration
rather than ``id(manager)``, keeping wait keys replay-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple


@dataclass(slots=True)
class _WaitInfo:
    """One waiting request: where it is queued and whom it blocks on."""

    manager: Any  # LockManager
    oid: int
    request: Any  # LockRequest
    blockers: Set[Any]


def youngest_victim(cycle: List[Any]) -> Any:
    """Default victim policy: abort the transaction that started last.

    Transactions expose a monotonically increasing ``txn_id``; the youngest
    has done the least work, so aborting it wastes the least.
    """
    return max(cycle, key=lambda txn: txn.txn_id)


def oldest_victim(cycle: List[Any]) -> Any:
    """Alternative policy: abort the oldest transaction (worst case, for the
    victim-policy ablation benchmark)."""
    return min(cycle, key=lambda txn: txn.txn_id)


class DeadlockDetector:
    """Cycle detection over the global waits-for graph.

    Args:
        victim_policy: maps a detected cycle (list of transactions) to the
            transaction to abort.  Defaults to :func:`youngest_victim`.
    """

    def __init__(self, victim_policy: Callable[[List[Any]], Any] = youngest_victim):
        self._waits: Dict[Any, Dict[Tuple[int, int], _WaitInfo]] = {}
        # incremental adjacency: waiter -> {blocker: live-wait refcount};
        # a blocker is present iff it blocks the waiter through >= 1 wait
        self._out: Dict[Any, Dict[Any, int]] = {}
        self._next_manager_id = 0
        # ids for managers that cannot carry a ``detector_index`` attribute
        # (e.g. None / test doubles); real lock managers never land here
        self._fallback_manager_ids: Dict[int, int] = {}
        self.victim_policy = victim_policy
        self.cycles_found = 0

    # ------------------------------------------------------------------ #
    # graph maintenance (called by lock managers)
    # ------------------------------------------------------------------ #

    def register_manager(self, manager: Any) -> int:
        """Hand out a stable small-int id for keying this manager's waits.

        Ids are assigned in first-contact order, which is deterministic for
        a seeded run — unlike ``id(manager)`` memory addresses.
        """
        manager_id = self._next_manager_id
        self._next_manager_id += 1
        return manager_id

    def _key(self, manager: Any, oid: int) -> Tuple[int, int]:
        manager_id = getattr(manager, "detector_index", None)
        if manager_id is None:
            try:
                manager_id = manager.detector_index = self.register_manager(manager)
            except AttributeError:
                fallback = self._fallback_manager_ids
                manager_id = fallback.get(id(manager))
                if manager_id is None:
                    manager_id = fallback[id(manager)] = self.register_manager(
                        manager
                    )
        return (manager_id, oid)

    def set_waits(
        self,
        waiter: Any,
        blockers: Iterable[Any],
        manager: Any,
        oid: int,
        request: Any,
    ) -> None:
        """Record/update one wait of ``waiter`` at ``(manager, oid)``."""
        blocker_set = {b for b in blockers if b is not waiter}
        waits = self._waits.get(waiter)
        if waits is None:
            waits = self._waits[waiter] = {}
        key = self._key(manager, oid)
        old = waits.get(key)
        if old is not None:
            self._drop_edges(waiter, old.blockers)
        waits[key] = _WaitInfo(
            manager=manager, oid=oid, request=request, blockers=blocker_set
        )
        self._add_edges(waiter, blocker_set)

    def clear_wait(self, txn: Any, manager: Any, oid: int) -> None:
        """Remove one wait (the request was granted or cancelled)."""
        waits = self._waits.get(txn)
        if waits is None:
            return
        info = waits.pop(self._key(manager, oid), None)
        if info is not None:
            self._drop_edges(txn, info.blockers)
        if not waits:
            self._waits.pop(txn, None)

    def clear_waits(self, txn: Any) -> None:
        """Remove every wait of ``txn`` (commit/abort path)."""
        if self._waits.pop(txn, None) is not None:
            self._out.pop(txn, None)

    def _add_edges(self, waiter: Any, blockers: Set[Any]) -> None:
        if not blockers:
            return
        counts = self._out.get(waiter)
        if counts is None:
            counts = self._out[waiter] = {}
        for blocker in blockers:
            counts[blocker] = counts.get(blocker, 0) + 1

    def _drop_edges(self, waiter: Any, blockers: Set[Any]) -> None:
        counts = self._out.get(waiter)
        if counts is None:
            return
        for blocker in blockers:
            remaining = counts.get(blocker, 0) - 1
            if remaining > 0:
                counts[blocker] = remaining
            else:
                counts.pop(blocker, None)
        if not counts:
            del self._out[waiter]

    def blockers_of(self, txn: Any) -> Set[Any]:
        """Union of blockers over the transaction's live waits."""
        counts = self._out.get(txn)
        return set(counts) if counts else set()

    def _ordered_blockers(self, txn: Any) -> List[Any]:
        """Blockers in a deterministic order.

        Transaction objects hash by identity, so iterating the raw set would
        make cycle exploration — and therefore victim selection — depend on
        memory addresses.  Ordering by ``txn_id`` keeps every run replayable.
        """
        counts = self._out.get(txn)
        if not counts:
            return []
        return sorted(counts, key=lambda t: t.txn_id)

    # ------------------------------------------------------------------ #
    # detection
    # ------------------------------------------------------------------ #

    def find_cycle(self, start: Any) -> Optional[List[Any]]:
        """Return a waits-for cycle reachable from ``start``, if one exists.

        Iterative DFS; the graph is tiny (bounded by concurrent transactions)
        so no cleverness is needed, but recursion is avoided for safety.
        """
        path: List[Any] = [start]
        on_path: Set[Any] = {start}
        visited: Set[Any] = set()
        stack: List[Tuple[Any, Iterable[Any]]] = [
            (start, iter(self._ordered_blockers(start)))
        ]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child in on_path:
                    idx = path.index(child)
                    return path[idx:]
                if child in visited:
                    continue
                visited.add(child)
                path.append(child)
                on_path.add(child)
                stack.append((child, iter(self._ordered_blockers(child))))
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
        return None

    def find_victim(self, start: Any) -> Optional[Any]:
        """Detect a cycle from ``start`` and pick a victim from it."""
        cycle = self.find_cycle(start)
        if cycle is None:
            return None
        self.cycles_found += 1
        return self.victim_policy(cycle)

    # ------------------------------------------------------------------ #
    # victim abort
    # ------------------------------------------------------------------ #

    def abort_waiting_txn(self, victim: Any, exc: BaseException) -> None:
        """Fail every queued lock request of ``victim``, waking it with
        ``exc``.

        Every member of a cycle is waiting by definition; a parallel-update
        transaction may have several queued requests, all of which must be
        cancelled so no stale request is granted after the abort.
        """
        waits = self._waits.get(victim)
        if not waits:
            # the victim's wait may already have been resolved by a racing
            # grant in the same instant; nothing to abort then
            return
        for info in list(waits.values()):
            info.manager.cancel_request(info.oid, info.request, exc)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def edges(self) -> Dict[Any, Set[Any]]:
        return {txn: self.blockers_of(txn) for txn in self._waits}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DeadlockDetector waiting={len(self._waits)} "
            f"cycles_found={self.cycles_found}>"
        )
