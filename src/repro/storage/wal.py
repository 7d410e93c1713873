"""Write-ahead log providing undo for aborted transactions.

The simulator keeps all state in memory, so the log's purpose here is
*atomicity*, not durability: when a transaction aborts (deadlock victim or
acceptance failure) its writes are rolled back in reverse order, restoring
both value and timestamp.  Commit simply forgets the transaction's entries.

The log also models *node crashes* for fault injection: :meth:`crash`
discards every in-flight transaction's effects (reverse global-order undo,
as a real recovery manager's rollback pass would), after which the log
refuses new writes until :meth:`begin_recovery` / :meth:`complete_recovery`
bring the node back.  A write attempted while the node is down raises
:class:`~repro.exceptions.CrashAbort`, which flows into each strategy's
normal abort path.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

from repro.exceptions import CrashAbort, InvalidStateError
from repro.storage.store import ObjectStore
from repro.storage.versioning import Timestamp

# log lifecycle states
ACTIVE = "active"
CRASHED = "crashed"
RECOVERING = "recovering"


class LogEntry(NamedTuple):
    """Before/after image of one write."""

    txn_id: int
    oid: int
    before_value: Any
    before_ts: Timestamp
    after_value: Any
    after_ts: Timestamp
    seq: int = -1  # global append order, for cross-transaction undo


_new = tuple.__new__  # LogEntry(*fields) without the Python frame


class WriteAheadLog:
    """Per-node undo log keyed by transaction.

    Example::

        wal.record(txn_id, oid, old, old_ts, new, new_ts)
        ...
        wal.undo(txn_id, store)   # on abort
        wal.forget(txn_id)        # on commit
    """

    def __init__(self) -> None:
        self._by_txn: Dict[int, List[LogEntry]] = {}
        self.total_entries = 0
        self.state = ACTIVE

    @property
    def is_active(self) -> bool:
        return self.state == ACTIVE

    def record(
        self,
        txn_id: int,
        oid: int,
        before_value: Any,
        before_ts: Timestamp,
        after_value: Any,
        after_ts: Timestamp,
    ) -> LogEntry:
        """Append a before/after image for ``txn_id``'s write to ``oid``."""
        if self.state != ACTIVE:
            raise CrashAbort(f"write lost: node log is {self.state}")
        entry = _new(LogEntry, (
            txn_id, oid, before_value, before_ts, after_value, after_ts,
            self.total_entries,
        ))
        entries = self._by_txn.get(txn_id)
        if entries is None:
            self._by_txn[txn_id] = [entry]
        else:
            entries.append(entry)
        self.total_entries += 1
        return entry

    def undo(self, txn_id: int, store: ObjectStore) -> int:
        """Roll back every write of ``txn_id`` in reverse order.

        Returns the number of writes undone.  The entries are consumed.
        """
        entries = self._by_txn.pop(txn_id, [])
        for entry in reversed(entries):
            store.restore(entry.oid, entry.before_value, entry.before_ts)
        return len(entries)

    def forget(self, txn_id: int) -> int:
        """Discard entries at commit.  Returns how many were dropped."""
        return len(self._by_txn.pop(txn_id, []))

    # ------------------------------------------------------------------ #
    # crash & recovery
    # ------------------------------------------------------------------ #

    def crash(self, store: ObjectStore) -> int:
        """The node fails: roll back every in-flight transaction.

        All pending entries are undone in reverse *global* append order
        (later writes first, across transactions), restoring each object's
        value and timestamp; the log then refuses new writes until recovery
        completes.  Returns the number of writes discarded.
        """
        if self.state == CRASHED:
            raise InvalidStateError("double crash: node is already down")
        if self.state == RECOVERING:
            raise InvalidStateError("crash during recovery is not modelled")
        pending = sorted(
            (entry for entries in self._by_txn.values() for entry in entries),
            key=lambda entry: entry.seq,
            reverse=True,
        )
        for entry in pending:
            store.restore(entry.oid, entry.before_value, entry.before_ts)
        self._by_txn.clear()
        self.state = CRASHED
        return len(pending)

    def begin_recovery(self) -> None:
        """Start bringing a crashed node back (only valid while crashed)."""
        if self.state != CRASHED:
            raise InvalidStateError(
                f"cannot recover a node whose log is {self.state}"
            )
        self.state = RECOVERING

    def complete_recovery(self) -> None:
        """Finish recovery: the log accepts writes again."""
        if self.state != RECOVERING:
            raise InvalidStateError(
                f"complete_recovery without begin_recovery (state {self.state})"
            )
        self.state = ACTIVE

    def entries_for(self, txn_id: int) -> List[LogEntry]:
        """The in-flight entries of ``txn_id`` (oldest first)."""
        return list(self._by_txn.get(txn_id, []))

    def pending_transactions(self) -> int:
        return len(self._by_txn)

    def assert_quiescent(self) -> None:
        """Raise unless every transaction has committed or aborted."""
        if self._by_txn:
            raise InvalidStateError(
                f"WAL still holds undo for {len(self._by_txn)} transactions"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<WriteAheadLog pending={len(self._by_txn)} "
            f"total={self.total_entries}>"
        )
