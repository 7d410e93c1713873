"""Eager master replication: synchronous updates routed through owners.

"Having a master for each object helps eager replication avoid deadlocks.
Suppose each object has an owner node. Updates go to this node first and are
then applied to the replicas. If each transaction updated a single replica,
the object-master approach would eliminate all deadlocks." (section 3)

The mechanism: all writers of object ``o`` must first lock ``o`` at its
master, so per-object conflicts serialize at a single node; only
multi-object transactions can still deadlock (through inconsistent lock
orders across different masters).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.exceptions import MasterUnavailableError
from repro.replication.base import (
    MasterOwnership,
    NodeContext,
    ReplicatedSystem,
    SystemSpec,
)
from repro.replication.pipeline import TxnContext
from repro.txn.ops import Operation


def round_robin_ownership(db_size: int, num_nodes: int) -> Dict[int, int]:
    """Default ownership map: object ``oid`` is mastered at ``oid % nodes``."""
    return {oid: oid % num_nodes for oid in range(db_size)}


def single_master_ownership(db_size: int, master: int = 0) -> Dict[int, int]:
    """Every object mastered at one node — the Data Cycle architecture
    [Herman] the paper compares two-tier against."""
    return {oid: master for oid in range(db_size)}


class EagerMasterSystem(MasterOwnership, ReplicatedSystem):
    """Master-owned eager replication (Table 1: eager / master).

    Args:
        ownership: map oid -> master node id.  Defaults to round-robin,
            spreading mastership evenly, which is the fair comparison point
            for the group variant.
    """

    name = "eager-master"
    #: master-first locking *is* the certification; no post-commit traffic
    PHASES = ("admission", "execute", "commit")

    def __init__(self, spec: SystemSpec, *,
                 ownership: Optional[Dict[int, int]] = None):
        super().__init__(spec)
        self._bind_ownership(ownership)

    # ------------------------------------------------------------------ #
    # transaction execution
    # ------------------------------------------------------------------ #

    def _phase_admission(self, ctx: TxnContext) -> None:
        if not self._all_masters_reachable(ctx.origin, ctx.ops):
            return self._refuse(ctx, "master-unreachable")
        ctx.txn = self.nodes[ctx.origin].tm.begin(label=ctx.label)
        # the origin is always in the release set: serializable reads take
        # shared locks there even when the transaction writes elsewhere
        ctx.touched = [self.nodes[ctx.origin]]

    def _phase_execute(self, ctx: TxnContext):
        origin, txn, touched = ctx.origin, ctx.txn, ctx.touched
        for op in ctx.ops:
            if op.is_read:
                yield from self._site_for(origin, op.oid).tm.execute(txn, op)
                continue
            # master first — the deadlock-avoidance mechanism — then the
            # remaining replicas, all inside this transaction.  Under a
            # partial placement "the remaining replicas" is the object's
            # replica set, not the whole system.
            master = self.master_of(op.oid)
            replicas = [master] + [
                n for n in self._replica_nodes(op.oid)
                if n.node_id != master.node_id
            ]
            for node in replicas:
                if node not in touched:
                    touched.append(node)
                yield from node.tm.execute(txn, op)
                self.metrics.actions += 1

    def _replica_nodes(self, oid: int) -> List[NodeContext]:
        """The nodes holding ``oid``, in node-id order."""
        if self.placement.is_full:
            return self.nodes
        return [
            self.nodes[node_id]
            for node_id in sorted(self.placement.replicas(oid))
        ]

    def _all_masters_reachable(self, origin: int, ops: Sequence[Operation]) -> bool:
        """Eager master needs every replica up (no quorum variant here):
        the transaction writes all replicas synchronously.  A partial
        placement narrows "every replica" to the replica sets of the
        objects this transaction writes."""
        if not self.network.is_connected(origin):
            return False
        if self.placement.is_full:
            return all(
                self.network.is_connected(node.node_id) for node in self.nodes
            )
        return all(
            self.network.is_connected(node_id)
            for op in ops
            if not op.is_read
            for node_id in self.placement.replicas(op.oid)
        )

    def handle_message(self, node: NodeContext, msg):  # pragma: no cover
        raise MasterUnavailableError(
            f"eager-master uses no asynchronous messages, got {msg.kind}"
        )
