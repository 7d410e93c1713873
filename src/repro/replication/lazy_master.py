"""Lazy master replication: masters serialize, slaves follow.

Section 5: "Master replication assigns an owner to each object... Updates
are first done by the owner and then propagated to other replicas."  The
root transaction executes against *master copies* (an RPC per remote-owned
object), commits, and then "the node originating the transaction broadcasts
the replica updates to all the slave replicas".

Slave updates are timestamped so replicas converge: "If the record timestamp
is newer than a replica update timestamp, the update is 'stale' and can be
ignored."  Lazy master therefore has **no reconciliations** — conflicts
surface as waits/deadlocks on the master copies (equation 19) and stale
propagations are silently suppressed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.exceptions import ReplicationError
from repro.network.message import Message
from repro.replication.base import (
    MasterOwnership,
    NodeContext,
    ReplicatedSystem,
    ReplicaUpdate,
    SystemSpec,
)
from repro.replication.pipeline import TxnContext
from repro.txn.transaction import Transaction


class LazyMasterSystem(MasterOwnership, ReplicatedSystem):
    """Master-owned lazy replication (Table 1: lazy / master).

    Args:
        ownership: map oid -> master node id (default round-robin).
        require_connected_masters: when True (default), a transaction whose
            object masters are unreachable aborts immediately — "A node
            wanting to update an object must be connected to the object
            owner" — which is exactly why lazy master alone cannot serve
            mobile nodes.
        master_broadcasts: choose between the paper's two propagation
            designs.  False (default): "the node originating the transaction
            broadcasts the replica updates to all the slave replicas after
            the master transaction commits."  True: "Alternatively, each
            master node sends replica updates to slaves in sequential commit
            order" — each owner ships the updates for the objects it
            masters, so one FIFO stream per master guarantees in-order
            arrival and no stale suppressions on that stream.
    """

    name = "lazy-master"
    #: execute against master copies, commit, then lazy slave streams;
    #: stale suppression at the slaves plays the certification role
    PHASES = ("admission", "execute", "commit", "propagate")

    def __init__(
        self,
        spec: SystemSpec,
        *,
        ownership: Optional[Dict[int, int]] = None,
        require_connected_masters: bool = True,
        master_broadcasts: bool = False,
    ):
        super().__init__(spec)
        self._bind_ownership(ownership)
        self.require_connected_masters = require_connected_masters
        self.master_broadcasts = master_broadcasts
        self.blocked_by_disconnect = 0

    def _register_probes(self, telemetry) -> None:
        super()._register_probes(telemetry)
        # stale propagated updates suppressed at replicas: the lazy-master
        # analogue of lazy-group's reconciliations
        telemetry.counter_rate("stale_rate", lambda: self.metrics.stale_updates)

    # ------------------------------------------------------------------ #
    # root (master) transaction
    # ------------------------------------------------------------------ #

    def _phase_admission(self, ctx: TxnContext) -> None:
        masters_needed = {
            self.ownership[op.oid] for op in ctx.ops if not op.is_read
        }
        if self.require_connected_masters and not self._reachable(
            ctx.origin, masters_needed
        ):
            self.blocked_by_disconnect += 1
            return self._refuse(ctx, "master-unreachable")
        ctx.txn = self.nodes[ctx.origin].tm.begin(label=ctx.label)
        # unlike the group strategies the release set starts empty: a
        # committed-read origin that masters nothing holds nothing
        ctx.touched = []

    def _phase_execute(self, ctx: TxnContext):
        origin, txn, involved = ctx.origin, ctx.txn, ctx.touched
        for op in ctx.ops:
            master = self.master_of(op.oid)
            if op.is_read:
                # committed-read at the local replica unless read locks
                # are on, in which case the read-lock RPC goes to the
                # master ("a read action should send read-lock RPCs to
                # the masters of any objects it reads").  A node holding
                # no replica of the object reads at the master too.
                if self.nodes[origin].tm.lock_reads:
                    target = master
                    if target not in involved:
                        involved.append(target)  # S locks need releasing
                else:
                    target = self._site_for(origin, op.oid)
                yield from target.tm.execute(txn, op)
                continue
            if (
                master.node_id != origin
                and self.network.message_delay > 0
            ):
                # RPC round to the owner
                yield self.engine.timeout(self.network.message_delay)
            if master not in involved:
                involved.append(master)
            yield from master.tm.execute(txn, op)
            self.metrics.actions += 1

    def _phase_propagate(self, ctx: TxnContext) -> None:
        self._propagate_to_slaves(ctx.origin, ctx.txn)

    def _propagate_to_slaves(self, origin: int, txn: Transaction) -> None:
        """Ship committed master updates to every other replica.

        Default: one broadcast from the originator per destination.  With
        ``master_broadcasts``: each object's master sends its own slice, so
        every (master, slave) pair is a FIFO commit-order stream.

        A node that masters every written object is already current;
        everyone else (including the originator, for remote-mastered
        objects) gets a slave refresh — N transactions total (Table 1).
        """
        updates = self._shipped_updates(txn)
        if not self.master_broadcasts:
            self._fan_out(origin, "slave-update", updates, self._mastered_at)
            return
        for node_id, needed in self._needed_by_holder(
            updates, self._mastered_at
        ):
            by_master: Dict[int, List[ReplicaUpdate]] = {}
            for update in needed:
                by_master.setdefault(
                    self.ownership[update.oid], []
                ).append(update)
            for master_id, slice_updates in by_master.items():
                self.network.send(
                    master_id, node_id, "slave-update", (slice_updates, 0)
                )

    # ------------------------------------------------------------------ #
    # slave application
    # ------------------------------------------------------------------ #

    def handle_message(self, node: NodeContext, msg: Message):
        if msg.kind != "slave-update":
            raise ReplicationError(f"lazy-master got unexpected {msg.kind}")
        # "If the record timestamp is newer than a replica update
        # timestamp, the update is 'stale' and can be ignored."
        return self._apply_shipped(node, msg, self._thomas_write_rule)
