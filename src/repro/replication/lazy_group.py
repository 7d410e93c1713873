"""Lazy group replication: update anywhere, propagate asynchronously.

Figure 1's "three-node lazy transaction (actually 3 transactions)": the root
transaction commits locally, then one replica-update transaction per remote
node carries the new values, each tagged with the *old* object timestamp the
root saw (Figure 4).  A receiver whose replica timestamp no longer matches
has detected two transactions racing — that update is "dangerous" and counts
as a **reconciliation**, resolved by a pluggable
:class:`~repro.replication.reconciliation.ReconciliationRule`.

Modes:

* default — ship values; conflicts resolved by the rule (timestamp wins by
  default: converges but loses updates);
* ``propagate_ops=True`` — ship the operations themselves so commutative
  workloads merge instead of losing updates (the section 6 "commutative
  updates" transaction form).
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ReplicationError
from repro.network.message import Message
from repro.replication.base import (
    NodeContext,
    ReplicatedSystem,
    ReplicaUpdate,
    SystemSpec,
)
from repro.replication.propagation import Lazy
from repro.replication.reconciliation import (
    Outcome,
    ReconciliationRule,
    default_rule,
)
from repro.storage.record import Record


class LazyGroupSystem(Lazy, ReplicatedSystem):
    """Update-anywhere lazy replication (Table 1: lazy / group)."""

    name = "lazy-group"
    #: local execution, local commit, asynchronous propagation; conflicts
    #: are certified *after the fact* by the Figure 4 timestamp test at
    #: each receiving replica, not by a pre-commit phase
    PHASES = ("execute", "commit", "propagate")
    #: "convergence is not serializability" (section 6): replicas agree,
    #: but racing updates leave precedence cycles
    guarantee = "convergent"

    def __init__(
        self,
        spec: SystemSpec,
        *,
        rule: Optional[ReconciliationRule] = None,
        propagate_ops: bool = False,
    ):
        super().__init__(spec)
        self.rule = rule if rule is not None else default_rule()
        self.propagate_ops = propagate_ops

    def _register_probes(self, telemetry) -> None:
        super()._register_probes(telemetry)
        # the lazy-group danger signals: replica-update application rate
        # and updates abandoned after exhausting deadlock retries
        metrics, system = self.metrics, self._proxy
        telemetry.counter_rate(
            "replica_update_rate", lambda: metrics.replica_updates
        )
        telemetry.gauge(
            "replica_updates_dropped", lambda: system.replica_updates_dropped
        )

    # ------------------------------------------------------------------ #
    # replica application
    # ------------------------------------------------------------------ #

    def handle_message(self, node: NodeContext, msg: Message):
        if msg.kind != self.SHIP:
            raise ReplicationError(f"lazy-group got unexpected {msg.kind}")
        return self._apply_shipped(node, msg, self._figure4_test)

    def _figure4_test(
        self, node: NodeContext, local: Record, update: ReplicaUpdate
    ) -> Outcome:
        """Judge one arriving replica update, counting reconciliations.

        Figure 4's test: if the local replica's timestamp equals the update's
        old timestamp, the update is safe; otherwise it is dangerous and the
        reconciliation rule decides its fate.  With ``propagate_ops`` a
        commutative operation is merged whatever the rule returns, unless
        it returns ``DEFER`` (see :mod:`repro.replication.reconciliation`).
        """
        if local.ts == update.new_ts:
            return Outcome.DISCARD  # duplicate delivery; already applied
        if local.ts == update.old_ts:
            # safe: replica exactly at the version the root saw
            outcome = Outcome.APPLY
        else:
            self.metrics.reconciliations += 1
            outcome = self.rule.resolve(local, update)
            self._trace(
                "reconcile", node=node.node_id, oid=update.oid,
                txn=update.root_txn_id, outcome=outcome.value,
            )
        if (
            (outcome is Outcome.APPLY or outcome is Outcome.DISCARD)
            and self.propagate_ops
            and update.op is not None
            and update.op.commutative
        ):
            # ship-the-operation mode: a commutative update is re-applied
            # to the local value, never installed over it nor dropped — a
            # replica that discarded an increment its peers applied would
            # diverge from them for good
            return Outcome.MERGE
        if outcome is not Outcome.APPLY and outcome is not Outcome.MERGE:
            # DISCARD and DEFER keep the local version; DEFER represents an
            # unresolved conflict awaiting a human (system delusion shows up
            # as divergence in the end-state check).  Either way the
            # rejection itself is recorded as precedence evidence for the
            # verifier.
            if self.history is not None:
                self.history.record_conflict(
                    node.node_id, update.root_txn_id, update.oid
                )
        return outcome
