"""Per-node transaction manager.

Runs operations under strict two-phase locking against the node's store and
write-ahead log.  Methods that may block (anything that takes a lock) are
generators to be driven with ``yield from`` inside a simulation process;
they raise :class:`~repro.exceptions.DeadlockAbort` at the ``yield`` if the
transaction is chosen as a deadlock victim while waiting.

Each action costs ``Action_Time`` of virtual time, per Table 2 of the paper
("Action_Time: time to perform an action") — this is what makes transaction
*duration* grow with transaction *size*, the mechanism behind the eager
scheme's N-times-longer transactions (equation 6).

Distributed usage: an eager transaction executes against several nodes'
managers.  The replication strategy coordinates, calling
:meth:`finish_commit_local` / :meth:`finish_abort_local` on every involved
manager; single-node callers can use the convenience :meth:`commit` /
:meth:`abort` that also flip the transaction state.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.exceptions import InvalidStateError
from repro.sim.engine import Engine
from repro.storage.lock_manager import LockManager, LockMode
from repro.storage.store import ObjectStore
from repro.storage.versioning import Timestamp, TimestampGenerator
from repro.storage.wal import WriteAheadLog
from repro.txn.ops import Operation
from repro.txn.transaction import Transaction, UpdateRecord

_new = tuple.__new__  # UpdateRecord(*fields) without the Python frame
_SHARED, _EXCLUSIVE = LockMode.SHARED, LockMode.EXCLUSIVE


class TransactionManager:
    """Executes transactions at one node.

    Args:
        engine: simulation engine.
        node_id: this node's id.
        store: the node's object store.
        locks: the node's lock manager.
        wal: the node's undo log.
        clock: the node's Lamport timestamp generator.
        action_time: virtual seconds consumed per action (Table 2).
        lock_reads: when True, reads take shared locks (full serializability);
            when False, reads are committed-read as the paper's model assumes
            ("a weak multi-version form of committed-read serialization").
    """

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        store: ObjectStore,
        locks: LockManager,
        wal: WriteAheadLog,
        clock: TimestampGenerator,
        action_time: float = 0.01,
        lock_reads: bool = False,
        history=None,
    ):
        self.engine = engine
        self.node_id = node_id
        self.store = store
        self.locks = locks
        self.wal = wal
        self.clock = clock
        self.action_time = action_time
        #: the one ``Timeout`` every action sleeps on (None: actions are free)
        self.action_sleep = (
            engine.timeout(action_time) if action_time > 0 else None
        )
        self.lock_reads = lock_reads
        self.history = history  # optional repro.verify.History
        self.begun = 0
        self.committed = 0
        self.aborted = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def begin(self, label: str = "") -> Transaction:
        """Start a new transaction originating at this node."""
        self.begun += 1
        return Transaction(self.node_id, self.engine.now, label)

    def commit(self, txn: Transaction) -> None:
        """Single-node commit: flip state and release local resources; the
        shipped writes ``txn`` carried now stand in the history."""
        txn.mark_committed(self.engine.now)
        self.finish_commit_local(txn)
        if self.history is not None:
            self.history.mark_applied(txn.txn_id)

    def abort(self, txn: Transaction, reason: str = "unknown") -> None:
        """Single-node abort: undo, flip state, release local resources."""
        txn.mark_aborted(self.engine.now, reason=reason)
        self.finish_abort_local(txn)

    def finish_commit_local(self, txn: Transaction) -> None:
        """Release this node's share of a committing transaction."""
        self.wal.forget(txn.txn_id)
        self.locks.release_all(txn)
        if txn.origin_node == self.node_id:
            self.committed += 1

    def finish_abort_local(self, txn: Transaction) -> None:
        """Undo this node's share of an aborting transaction."""
        self.wal.undo(txn.txn_id, self.store)
        self.locks.release_all(txn)
        if txn.origin_node == self.node_id:
            self.aborted += 1

    # ------------------------------------------------------------------ #
    # operation execution (generators)
    # ------------------------------------------------------------------ #

    def execute(self, txn: Transaction, op: Operation) -> Generator[Any, Any, Any]:
        """Run one operation for ``txn`` at this node.

        Yields while waiting for locks or consuming action time.  Returns the
        value read (for reads) or written (for updates).  A lock wait may
        raise :class:`~repro.exceptions.DeadlockAbort` at its ``yield``.
        """
        txn.require_active()
        oid = op.oid
        if op.is_read:
            if self.lock_reads:
                event = self.locks.acquire(txn, oid, _SHARED)
                if event is not None:
                    yield event
                    txn.require_active()
            value = self.store.value(oid)
            txn.record_read(value)
            if self.history is not None:
                self.history.record_read(self.node_id, txn.txn_id, oid)
            return value
        event = self.locks.acquire(txn, oid, _EXCLUSIVE)
        if event is not None:
            yield event
            txn.require_active()
        if self.action_sleep is not None:
            yield self.action_sleep
        txn.require_active()
        record = self.store.read(oid)
        old_value, old_ts = record.value, record.ts
        new_ts = self.clock.tick()
        new_value = op.apply(old_value)
        self.wal.record(txn.txn_id, oid, old_value, old_ts, new_value, new_ts)
        self.store.write(oid, new_value, new_ts)
        txn.record_update(
            _new(UpdateRecord, (oid, op, old_value, old_ts, new_value, new_ts))
        )
        if self.history is not None:
            if op.reads_state:
                # an increment is a read-modify-write; the verifier needs
                # the implicit read to reconstruct conflicts faithfully
                self.history.record_read(self.node_id, txn.txn_id, oid)
            self.history.record_write(self.node_id, txn.txn_id, oid)
        return new_value

    def execute_install(
        self,
        txn: Transaction,
        oid: int,
        value: Any,
        new_ts: Timestamp,
        root_txn_id: Optional[int] = None,
    ) -> Generator[Any, Any, Any]:
        """X-lock ``oid``, spend one action, then :meth:`install`."""
        txn.require_active()
        event = self.locks.acquire(txn, oid, _EXCLUSIVE)
        if event is not None:
            yield event
            txn.require_active()
        if self.action_sleep is not None:
            yield self.action_sleep
        txn.require_active()
        return self.install(txn, oid, value, new_ts, root_txn_id)

    def install(
        self,
        txn: Optional[Transaction],
        oid: int,
        value: Any,
        new_ts: Timestamp,
        root_txn_id: Optional[int],
    ) -> Any:
        """Install a shipped replica value (lazy propagation, Figure 1/4).

        The value arrives with the *root* transaction's timestamp so that all
        replicas converge to identical (value, ts) pairs; the local Lamport
        clock witnesses the foreign timestamp.  When a history is being
        recorded, the install is attributed to ``root_txn_id`` — it is the
        root transaction's write, carried to this replica.

        The caller has ``oid`` to itself: under ``txn``'s X lock, or, with
        ``txn`` ``None``, because nothing else runs before it is done — then
        no undo record is written and ``root_txn_id`` must name the write.
        """
        return self._write_shipped(
            txn, oid, self.store.read(oid), value, new_ts, new_ts, root_txn_id
        )

    def transform(
        self,
        txn: Optional[Transaction],
        op: Operation,
        new_ts: Timestamp,
        root_txn_id: Optional[int],
    ) -> Any:
        """Apply a shipped *commutative* operation to the local replica.

        Used by convergent schemes that propagate transformations rather than
        values (section 6).  The replica timestamp becomes the max of the
        current and shipped timestamps, so replicas agree on the final
        timestamp regardless of application order.  ``txn`` is as for
        :meth:`install`.
        """
        oid = op.oid
        record = self.store.read(oid)
        return self._write_shipped(
            txn, oid, record, op.apply(record.value), max(record.ts, new_ts),
            new_ts, root_txn_id,
        )

    def _write_shipped(self, txn, oid, record, value, ts, shipped_ts, root_txn_id):
        if txn is not None:
            self.wal.record(txn.txn_id, oid, record.value, record.ts, value, ts)
        self.store.write(oid, value, ts)
        self.clock.witness(shipped_ts)
        if self.history is not None:
            if root_txn_id is None:  # the transaction's own write
                self.history.record_write(self.node_id, txn.txn_id, oid)
            else:  # the root's, standing once a carrying ``txn`` commits
                self.history.record_write(
                    self.node_id, root_txn_id, oid,
                    None if txn is None else txn.txn_id,
                )
        return value

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def assert_quiescent(self) -> None:
        """Raise unless no transaction holds locks or pending undo here."""
        self.wal.assert_quiescent()
        holding = self.locks.holding_transactions()
        if holding:
            raise InvalidStateError(f"{holding} transactions still hold locks")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TransactionManager node={self.node_id} begun={self.begun} "
            f"committed={self.committed} aborted={self.aborted}>"
        )
