"""Eager group replication: update anywhere, synchronously, everywhere.

Figure 1's "three-node eager transaction": each action is applied at every
replica *inside* the originating transaction, so the transaction holds locks
at all nodes, its size is ``Actions x Nodes``, and its duration stretches to
``Actions x Nodes x Action_Time`` (equation 6).  Deadlocks — including
cross-node cycles — are the failure mode; there are never reconciliations.

Availability: "Simple eager replication systems prohibit updates if any node
is disconnected. For high availability, eager replication systems allow
updates among members of the quorum" — pass ``quorum=True`` to update the
connected majority and let disconnected nodes catch up through the network's
store-and-forward queues when they return.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import MasterUnavailableError
from repro.network.message import Message
from repro.replication.base import NodeContext, ReplicatedSystem, SystemSpec
from repro.replication.pipeline import TxnContext
from repro.replication.quorum import QuorumConfig
from repro.txn.ops import Operation
from repro.txn.transaction import Transaction


class EagerGroupSystem(ReplicatedSystem):
    """Update-anywhere eager replication (Table 1: eager / group).

    Args:
        quorum: allow updates among a connected majority (Gifford voting).
        parallel_updates: footnote 2's alternate model — each action is
            broadcast to all replicas *in parallel*, so per-action elapsed
            time stays ``Action_Time`` regardless of N and the deadlock
            explosion drops from cubic to quadratic (see
            :func:`repro.analytic.eager.parallel_update_deadlock_rate`).
    """

    name = "eager-group"
    #: synchronous writes everywhere, locking as certification; quorum
    #: catch-up is the only post-commit propagation
    PHASES = ("admission", "execute", "commit", "propagate")

    def __init__(self, spec: SystemSpec, *, quorum: bool = False,
                 parallel_updates: bool = False):
        super().__init__(spec)
        self.quorum_enabled = quorum
        self.quorum_config = QuorumConfig.majority(self.num_nodes)
        self.parallel_updates = parallel_updates
        self.blocked_by_disconnect = 0

    # ------------------------------------------------------------------ #
    # transaction execution (the pipeline phases)
    # ------------------------------------------------------------------ #

    def _phase_admission(self, ctx: TxnContext) -> None:
        participants = self._participants(ctx.origin, ctx.ops)
        if participants is None:
            # cannot form a quorum (or, without quorums, somebody is down)
            self.blocked_by_disconnect += 1
            return self._refuse(ctx, "no-quorum")
        ctx.scratch["participants"] = participants
        ctx.txn = self.nodes[ctx.origin].tm.begin(label=ctx.label)
        # the origin is always in the release set: serializable reads take
        # shared locks there even when the transaction writes elsewhere
        ctx.touched = [self.nodes[ctx.origin]]

    def _phase_execute(self, ctx: TxnContext):
        origin, txn, touched = ctx.origin, ctx.txn, ctx.touched
        participants = ctx.scratch["participants"]
        is_full = self.placement.is_full
        if not is_full:
            participant_ids = {node.node_id for node in participants}
        for op in ctx.ops:
            if op.is_read:
                # committed read at the origin, or at the object's master
                # replica when the origin holds no copy
                yield from self._site_for(origin, op.oid).tm.execute(txn, op)
                continue
            # under a partial placement only the object's replicas are
            # updated; with full replication this is all participants.
            # Sites come from the op's replica set (O(k log k)), not a
            # scan of all participants — same order as the old filter:
            # origin first, then ascending node id.
            if is_full:
                sites = participants
            else:
                replica_ids = self.placement.replicas(op.oid)
                sites = [
                    self.nodes[node_id]
                    for node_id in sorted(replica_ids)
                    if node_id in participant_ids and node_id != origin
                ]
                if origin in replica_ids:
                    sites.insert(0, self.nodes[origin])
            for node in sites:
                if node not in touched:
                    touched.append(node)
            if self.parallel_updates:
                yield from self._apply_parallel(txn, op, sites)
            else:
                # Figure 1: Write A at every node, then Write B at every
                # node, ... — sequential replica updates, origin first.
                for node in sites:
                    yield from node.tm.execute(txn, op)
                    self.metrics.actions += 1

    def _apply_parallel(self, txn: Transaction, op, participants):
        """Footnote 2: broadcast one action to every replica at once.

        All replica updates for this action run as concurrent processes; the
        action's elapsed time is the slowest replica (``Action_Time`` plus
        any lock waits), not the sum.  A deadlock at any replica aborts the
        whole transaction: the abort path releases locks and fails the
        sibling updates' queued requests, so no straggler leaks.
        """
        def replica_update(node: NodeContext):
            yield from node.tm.execute(txn, op)
            self.metrics.actions += 1

        processes = [
            self.engine.process(
                replica_update(node), name=f"parallel-{txn.txn_id}@{node.node_id}"
            )
            for node in participants
        ]
        for process in processes:
            yield process  # re-raises DeadlockAbort from any replica

    def _participants(
        self, origin: int, ops: Sequence[Operation]
    ) -> List[NodeContext] | None:
        """Nodes reachable for this transaction, or None if it must fail.

        Full replication: the classic check — everybody connected, or a
        connected majority when quorums are on.  Partial placement: each
        *written object's replica set* must be fully connected (or hold a
        majority of its own k replicas when quorums are on); the write loop
        then picks each op's replica sites out of the returned list.
        """
        if not self.network.is_connected(origin):
            return None
        connected = [
            node for node in self.nodes if self.network.is_connected(node.node_id)
        ]
        if self.placement.is_full:
            if len(connected) == self.num_nodes:
                ordered = [self.nodes[origin]] + [
                    n for n in self.nodes if n.node_id != origin
                ]
                return ordered
            if not self.quorum_enabled:
                return None
            if not self.quorum_config.is_write_quorum(len(connected)):
                return None
            ordered = [self.nodes[origin]] + [
                n for n in connected if n.node_id != origin
            ]
            return ordered
        connected_ids = {node.node_id for node in connected}
        for oid in {op.oid for op in ops if not op.is_read}:
            replicas = self.placement.replicas(oid)
            live = sum(1 for r in replicas if r in connected_ids)
            if self.quorum_enabled:
                if not QuorumConfig.majority(len(replicas)).is_write_quorum(live):
                    return None
            elif live < len(replicas):
                return None
        return [self.nodes[origin]] + [
            n for n in connected if n.node_id != origin
        ]

    # ------------------------------------------------------------------ #
    # quorum catch-up
    # ------------------------------------------------------------------ #

    def _phase_propagate(self, ctx: TxnContext) -> None:
        """Queue committed updates for replicas outside the write quorum.

        "When a node joins the quorum, the quorum sends the new node all
        replica updates since the node was disconnected."  The network's
        store-and-forward queues deliver these on reconnect.  Under a
        partial placement each absent node receives only the updates for
        objects it replicates.
        """
        participants = ctx.scratch["participants"]
        if len(participants) == self.num_nodes:
            return
        # everyone in the quorum was written inside the transaction
        participant_ids = {node.node_id for node in participants}
        self._fan_out(
            ctx.origin, "catchup", self._shipped_updates(ctx.txn),
            lambda update: participant_ids,
        )

    def handle_message(self, node: NodeContext, msg: Message):
        if msg.kind != "catchup":
            raise MasterUnavailableError(f"unexpected message {msg.kind}")
        # catch-up installs are housekeeping transactions like any lazy
        # stream's; a copy the node already has is suppressed by timestamp
        return self._apply_shipped(node, msg, self._thomas_write_rule)
