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

from repro.exceptions import ReplicationError
from repro.network.message import Message
from repro.replication.base import NodeContext, ReplicatedSystem, SystemSpec
from repro.replication.pipeline import TxnContext
from repro.replication.propagation import Eager
from repro.replication.quorum import QuorumConfig


class EagerGroupSystem(Eager, ReplicatedSystem):
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
            raise ReplicationError(f"eager-group got unexpected {msg.kind}")
        # catch-up installs are housekeeping transactions like any lazy
        # stream's; a copy the node already has is suppressed by timestamp
        return self._apply_shipped(node, msg, self._thomas_write_rule)
