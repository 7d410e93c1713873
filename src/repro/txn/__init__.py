"""Transaction substrate: operations, lifecycle, manager.

A transaction here is a sequence of *operations* over objects.  Operations
carry their own semantics — overwrite, increment, append — and declare
whether they **commute** (section 6 of the paper: "adding and subtracting
constants from an integer value" commutes; overwrites do not).  The two-tier
scheme's headline property (zero reconciliations when all transactions
commute) falls directly out of this vocabulary.

The :class:`~repro.txn.manager.TransactionManager` runs operations under
strict two-phase locking with the per-node storage substrate.
"""

from repro.txn.ops import (
    AppendOp,
    IncrementOp,
    MultiplyOp,
    Operation,
    ReadOp,
    WriteOp,
)
from repro.txn.transaction import Transaction, TxnState, UpdateRecord
from repro.txn.manager import TransactionManager

__all__ = [
    "AppendOp",
    "IncrementOp",
    "MultiplyOp",
    "Operation",
    "ReadOp",
    "WriteOp",
    "Transaction",
    "TxnState",
    "UpdateRecord",
    "TransactionManager",
]
