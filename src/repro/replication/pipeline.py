"""The commit-protocol pipeline: a transaction's lifecycle as named phases.

Every replication strategy is a composition of a small vocabulary of
phases — the decomposition that makes post-1996 protocols cheap to add:

* ``admission``    — reachability / quorum checks (the driver has
  already begun the transaction);
* ``execute``      — run the operations (locally, at masters, or at every
  replica, depending on the strategy);
* ``certify``      — judge what ``execute`` produced: the read/write set
  against a version table or logical timestamps, or — two-tier — a
  re-executed tentative transaction's outputs against its acceptance
  criterion (absent from the other 1996 strategies, which rely on locking
  instead);
* ``commit``       — flip the transaction state and release resources at
  every involved node;
* ``propagate``    — ship committed updates to the replicas that were not
  written synchronously (lazy streams, quorum catch-up).

A strategy declares its composition as a ``PHASES`` tuple of names; for
each name ``p`` the class provides a ``_phase_<p>`` method taking the
:class:`TxnContext`.  Phase methods may be plain functions (instantaneous
bookkeeping) or generators (anything that waits on locks, timeouts or
messages); the driver in :meth:`ReplicatedSystem._run` interleaves them
without adding any engine interaction of its own, so a composition runs
exactly the lifecycle its phases spell out.  The Table-1 strategies take
their ``admission`` / ``execute`` / ``propagate`` bodies from the
:mod:`~repro.replication.propagation` row mixins.

A phase ends the transaction early — admission failure, certification
abort — by setting ``ctx.finished = True``; a ``DeadlockAbort`` escaping a
phase makes the driver undo the transaction at every ``ctx.touched`` node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.txn.ops import Operation
from repro.txn.transaction import Transaction

#: the phase vocabulary, in canonical lifecycle order
PHASE_ORDER: Tuple[str, ...] = (
    "admission", "execute", "certify", "commit", "propagate"
)


@dataclass
class TxnContext:
    """Mutable per-attempt state threaded through the pipeline phases.

    One context is built per attempt of one user transaction; phases
    communicate through it instead of through local variables, so a
    strategy's lifecycle can be recomposed without rewriting its logic.

    Attributes:
        origin: submitting node id.
        ops: the transaction's operations.
        label: workload label for traces.
        txn: the live :class:`Transaction`, begun by the driver.
        touched: nodes that acquired locks / wrote WAL entries for this
            transaction — the release set for commit/abort.
        finished: set by a phase to short-circuit the remaining phases
            (the transaction reached a terminal state early).
        scratch: strategy-private storage (quorum participants, buffered
            write sets, certification verdicts, ...).
        record: what the transaction is run on behalf of, handed to the
            driver by the strategy — two-tier's tentative transaction being
            re-executed at the base tier; ``None`` for a transaction
            submitted directly.
    """

    origin: int
    ops: List[Operation]
    label: str
    txn: Transaction
    touched: List[Any] = field(default_factory=list)
    finished: bool = False
    scratch: Dict[str, Any] = field(default_factory=dict)
    record: Any = None
