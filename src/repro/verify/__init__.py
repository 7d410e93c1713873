"""Execution-history verification.

The paper's correctness claims are about *schedules*: "Eager replication
gives serializable execution — there are no concurrency anomalies", while
update-anywhere lazy schemes admit non-serializable behaviour that surfaces
as reconciliation.  This package records the history a simulated system
actually executed and checks it:

* :class:`~repro.verify.history.History` — an append-only log of committed
  reads/writes, per node, attributed to the *root* user transaction (replica
  refreshes count as the root's writes at that replica).
* :class:`~repro.verify.history.ConflictGraph` — the precedence graph over
  committed transactions; acyclicity certifies (one-copy) conflict
  serializability of the recorded schedule, and a cycle is a concrete,
  inspectable anomaly.

The judge that reads it — against each strategy's declared guarantee — is
:func:`repro.faults.oracle.evaluate`.
"""

from repro.verify.history import ConflictGraph, History

__all__ = ["History", "ConflictGraph"]
