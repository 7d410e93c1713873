"""Transaction objects and lifecycle.

A :class:`Transaction` is a passive record of one execution attempt: its
identity, origin node, state, and the update records accumulated as its
operations run.  The update records carry the before/after timestamps that
lazy replication ships to replicas (Figure 4 of the paper).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, List, NamedTuple, Optional

from repro.exceptions import InvalidStateError
from repro.storage.versioning import Timestamp
from repro.txn.ops import Operation

_txn_ids = itertools.count(1)


def reset_txn_ids() -> None:
    """Restart the global transaction id counter (test isolation only)."""
    global _txn_ids
    _txn_ids = itertools.count(1)


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class UpdateRecord(NamedTuple):
    """One committed-to-be write, with the versioning data replicas need.

    ``old_ts`` is the timestamp the root transaction saw before its write —
    exactly the "old time" field of Figure 4's lazy update message.
    """

    oid: int
    op: Operation
    old_value: Any
    old_ts: Timestamp
    new_value: Any
    new_ts: Timestamp


class Transaction:
    """One execution attempt of a sequence of operations.

    Attributes:
        txn_id: globally unique, monotonically increasing (used by the
            youngest-victim deadlock policy).
        origin_node: node where the transaction was submitted.
        start_time: virtual time of ``begin``.
        updates: ordered :class:`UpdateRecord` list for replication.
        reads: values observed by read operations, in order.
    """

    def __init__(self, origin_node: int, start_time: float, label: str = ""):
        self.txn_id: int = next(_txn_ids)
        self.origin_node = origin_node
        self.start_time = start_time
        self.label = label
        self.state = TxnState.ACTIVE
        self.updates: List[UpdateRecord] = []
        self.reads: List[Any] = []
        self.end_time: Optional[float] = None
        self.abort_reason: Optional[str] = None
        self.restarts: int = 0

    # ------------------------------------------------------------------ #
    # state predicates & transitions
    # ------------------------------------------------------------------ #

    @property
    def active(self) -> bool:
        return self.state is TxnState.ACTIVE

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise InvalidStateError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )

    def mark_committed(self, now: float) -> None:
        self.require_active()
        self.state = TxnState.COMMITTED
        self.end_time = now

    def mark_aborted(self, now: float, reason: str = "unknown") -> None:
        self.require_active()
        self.state = TxnState.ABORTED
        self.end_time = now
        self.abort_reason = reason

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def record_update(self, record: UpdateRecord) -> None:
        self.updates.append(record)

    def record_read(self, value: Any) -> None:
        self.reads.append(value)

    @property
    def write_set(self) -> List[int]:
        """Object ids written, in order, without duplicates."""
        seen: set[int] = set()
        out: List[int] = []
        for update in self.updates:
            if update.oid not in seen:
                seen.add(update.oid)
                out.append(update.oid)
        return out

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"<Txn {self.txn_id}{tag} node={self.origin_node} "
            f"{self.state.value} updates={len(self.updates)}>"
        )
