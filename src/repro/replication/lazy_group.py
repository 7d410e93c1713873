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
from repro.replication.pipeline import TxnContext
from repro.replication.reconciliation import (
    Outcome,
    ReconciliationRule,
    default_rule,
)
from repro.storage.record import Record


class LazyGroupSystem(ReplicatedSystem):
    """Update-anywhere lazy replication (Table 1: lazy / group)."""

    name = "lazy-group"
    #: local execution, local commit, asynchronous propagation; conflicts
    #: are certified *after the fact* by the Figure 4 timestamp test at
    #: each receiving replica, not by a pre-commit phase
    PHASES = ("execute", "commit", "propagate")

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
        telemetry.counter_rate(
            "replica_update_rate", lambda: self.metrics.replica_updates
        )
        telemetry.gauge(
            "replica_updates_dropped", lambda: self.replica_updates_dropped
        )

    # ------------------------------------------------------------------ #
    # root transaction
    # ------------------------------------------------------------------ #

    def _phase_execute(self, ctx: TxnContext):
        origin = ctx.origin
        node = self.nodes[origin]
        txn = ctx.txn = node.tm.begin(label=ctx.label)
        # the origin is always in the release set; under a partial
        # placement ops on non-resident objects execute at the object's
        # master replica, which then joins the set
        touched = ctx.touched = [node]
        if self.placement.is_full:
            yield from self._execute_local(node, txn, ctx.ops)
            return
        for op in ctx.ops:
            site = self._site_for(origin, op.oid)
            if site is not node:
                if site not in touched:
                    touched.append(site)
                if self.network.message_delay > 0:
                    # RPC round to the remote replica (same cost model as
                    # lazy-master's remote-owner writes)
                    yield self.engine.timeout(self.network.message_delay)
            yield from site.tm.execute(txn, op)
            if not op.is_read:
                self.metrics.actions += 1

    def _phase_propagate(self, ctx: TxnContext) -> None:
        """One lazy replica-update transaction per remote node (Figure 1).

        Under a partial placement each update travels only to the other
        members of its object's replica set; nodes holding none of the
        written objects receive nothing.
        """
        origin = ctx.origin
        # where did the root execute each update?  that replica is already
        # current and must not receive a redundant (and reconciliation-
        # counting) copy
        self._fan_out(
            origin, "replica-update", self._shipped_updates(ctx.txn),
            lambda update: (self._site_for(origin, update.oid).node_id,),
        )

    # ------------------------------------------------------------------ #
    # replica application
    # ------------------------------------------------------------------ #

    def handle_message(self, node: NodeContext, msg: Message):
        if msg.kind != "replica-update":
            raise ReplicationError(f"lazy-group got unexpected {msg.kind}")
        return self._apply_shipped(node, msg, self._figure4_test)

    def _figure4_test(
        self, node: NodeContext, local: Record, update: ReplicaUpdate
    ) -> Outcome:
        """Judge one arriving replica update, counting reconciliations.

        Figure 4's test: if the local replica's timestamp equals the update's
        old timestamp, the update is safe; otherwise it is dangerous and the
        reconciliation rule decides its fate.
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
        if outcome is Outcome.APPLY:
            if (
                self.propagate_ops
                and update.op is not None
                and update.op.commutative
            ):
                # ship-the-operation mode: a commutative update is
                # re-applied to the local value, not installed over it
                return Outcome.MERGE
        elif outcome is not Outcome.MERGE:
            # DISCARD and DEFER keep the local version; DEFER represents an
            # unresolved conflict awaiting a human (system delusion shows up
            # as divergence in the end-state check).  Either way the
            # rejection itself is recorded as precedence evidence for the
            # verifier.
            if self.history is not None and update.root_txn_id >= 0:
                self.history.record_conflict(
                    node.node_id, update.root_txn_id, update.oid
                )
        return outcome
