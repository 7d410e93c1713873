"""The two-tier scope rule.

"Tentative transactions must follow a scope rule: they may involve objects
mastered on base nodes and mastered at the mobile node originating the
transaction (call this the transaction's scope). The idea is that the mobile
node and all the base nodes will be in contact when the tentative
transaction is processed as a 'real' base transaction — so the real
transaction will be able to read the master copy of each item in the scope."
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.exceptions import ScopeViolationError
from repro.txn.ops import Operation


class TransactionScope:
    """Validates tentative transactions against the scope rule.

    Every object in ``[0, db_size)`` is mastered at a base node unless
    ``mobile_mastered`` hands it to a mobile, so a mobile's scope is the
    whole database minus what the other mobiles master.

    Args:
        mobile_mastered: map oid -> mobile node id mastering it.
        db_size: objects in the database; any other oid is out of scope.
    """

    def __init__(self, mobile_mastered: Dict[int, int], db_size: int):
        self.mobile_mastered = mobile_mastered
        self.db_size = db_size

    def master_is_in_scope(self, oid: int, mobile_id: int) -> bool:
        return (
            0 <= oid < self.db_size
            and self.mobile_mastered.get(oid, mobile_id) == mobile_id
        )

    def validate(self, ops: Sequence[Operation], mobile_id: int) -> None:
        """Raise :class:`ScopeViolationError` if any op leaves the scope.

        Both reads and writes are checked — a tentative transaction "cannot
        read or write any [other mobile's] tentative data" and its base
        re-execution must find every master reachable.
        """
        for op in ops:
            if self.master_is_in_scope(op.oid, mobile_id):
                continue
            if not 0 <= op.oid < self.db_size:
                raise ScopeViolationError(
                    f"object {op.oid} is outside the database "
                    f"[0, {self.db_size})"
                )
            raise ScopeViolationError(
                f"object {op.oid} is mastered at mobile node "
                f"{self.mobile_mastered[op.oid]}, not at a base node or "
                f"mobile node {mobile_id}"
            )
