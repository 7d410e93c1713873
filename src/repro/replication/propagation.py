"""The propagation row of Table 1: the eager and lazy phase bodies.

:class:`Eager` updates every holder of a written object inside the
transaction (Figure 1's "three-node eager transaction"); :class:`Lazy`
commits at one copy and ships the updates to the others afterwards
("actually 3 transactions").  Where a write lands first is the column's
answer, :meth:`~repro.replication.base.ReplicatedSystem._owner`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.replication.base import MasterOwnership, NodeContext
from repro.replication.pipeline import TxnContext
from repro.replication.quorum import QuorumConfig
from repro.txn.ops import Operation
from repro.txn.transaction import Transaction


class Eager:
    """Eager propagation: the transaction writes every reachable holder.

    Admission picks the participants — everybody, or a connected majority
    when ``quorum_enabled`` — or refuses.  A write runs first at its owner,
    or at the origin when there is no owner and the origin holds a copy,
    then at the rest of its replica set among the participants, in
    ascending node id.
    """

    #: update a connected majority instead of refusing (Gifford voting)
    quorum_enabled = False
    #: footnote 2: one action reaches every replica at once
    parallel_updates = False

    def _phase_admission(self, ctx: TxnContext) -> None:
        participants = self._participants(ctx.origin, ctx.ops)
        if participants is None:
            # cannot form a quorum (or, without quorums, somebody is down)
            return self._refuse(ctx)
        ctx.scratch["participants"] = participants
        # the origin is always in the release set: serializable reads take
        # shared locks there even when the transaction writes elsewhere
        ctx.touched = [self.nodes[ctx.origin]]

    def _phase_execute(self, ctx: TxnContext):
        origin, txn, touched = ctx.origin, ctx.txn, ctx.touched
        participants = ctx.scratch["participants"]
        placement, owner_of = self.placement, self._owner
        participant_ids = None
        for op in ctx.ops:
            oid = op.oid
            if op.is_read:
                # committed read at the origin, or at the object's master
                # replica when the origin holds no copy
                yield from self._site_for(origin, oid).tm.execute(txn, op)
                continue
            owner = owner_of(oid)
            if owner is None and placement.is_full:
                sites = participants  # origin first, then ascending
            else:
                # sites come from the op's replica set (O(k log k)), not a
                # scan of all participants
                if participant_ids is None:
                    participant_ids = {node.node_id for node in participants}
                replica_ids = placement.replicas(oid)
                if owner is None and origin in replica_ids:
                    owner = origin
                sites = [self.nodes[owner]] if owner is not None else []
                sites += [
                    self.nodes[node_id]
                    for node_id in sorted(replica_ids)
                    if node_id != owner and node_id in participant_ids
                ]
            for node in sites:
                if node not in touched:
                    touched.append(node)
            if self.parallel_updates:
                yield from self._apply_parallel(txn, op, sites)
            else:
                # Figure 1: Write A at every node, then Write B at every
                # node, ... — sequential replica updates
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
    ) -> Optional[List[NodeContext]]:
        """Nodes reachable for this transaction, origin first, or None if
        it must be refused.

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
            if len(connected) != self.num_nodes and not (
                self.quorum_enabled
                and self.quorum_config.is_write_quorum(len(connected))
            ):
                return None
        else:
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


class Lazy:
    """Lazy propagation: commit at one copy, then ship the updates.

    A write, or a read under ``lock_reads``, runs at the owner's copy —
    under group ownership at :meth:`_site_for` — and a plain read at
    :meth:`_site_for`; a copy on another node is one ``message_delay``
    away.  After commit every other holder gets the updates as one
    ``SHIP`` message, which the class's ``handle_message`` applies.
    """

    #: the message kind the committed updates travel as
    SHIP = "replica-update"

    def _write_site(self, origin: int, oid: int) -> NodeContext:
        """The copy a transaction rooted at ``origin`` writes ``oid`` at."""
        owner = self._owner(oid)
        return self._site_for(origin, oid) if owner is None else self.nodes[owner]

    def _phase_execute(self, ctx: TxnContext):
        origin, txn, touched = ctx.origin, ctx.txn, ctx.touched
        node = self.nodes[origin]
        lock_reads = node.tm.lock_reads
        delay = self.network.message_delay
        if not isinstance(self, MasterOwnership):
            # update anywhere roots the transaction at its origin, which
            # leads the release set; a master-owned transaction holds only
            # what the copies it visits lock
            touched.append(node)
        for op in ctx.ops:
            oid = op.oid
            locks = lock_reads or not op.is_read
            site = (
                self._write_site(origin, oid) if locks
                else self._site_for(origin, oid)
            )
            if locks and site not in touched:
                touched.append(site)
            if site is not node and delay > 0:
                # RPC round to the remote copy, read or write
                yield self.engine.timeout(delay)
            yield from site.tm.execute(txn, op)
            if not op.is_read:
                self.metrics.actions += 1

    def _phase_propagate(self, ctx: TxnContext) -> None:
        self._propagate(ctx.origin, ctx.txn)

    def _propagate(self, origin: int, txn: Transaction) -> None:
        """Ship ``txn``'s committed updates to every holder but the copy
        each one was written at, which is already current (and, under
        lazy-group, would count a redundant copy as a reconciliation).

        Under a partial placement each update travels only to the other
        members of its object's replica set; nodes holding none of the
        written objects receive nothing.
        """
        write_site = self._write_site
        self._fan_out(
            origin, self.SHIP, self._shipped_updates(txn),
            lambda update: (write_site(origin, update.oid).node_id,),
        )
