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

from typing import Dict, List

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
from repro.replication.propagation import Lazy
from repro.txn.transaction import Transaction


class LazyMasterSystem(Lazy, MasterOwnership, ReplicatedSystem):
    """Master-owned lazy replication (Table 1: lazy / master).

    Every object is mastered at its placement's master (round-robin under
    full replication).

    Args:
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
    SHIP = "slave-update"

    def __init__(
        self,
        spec: SystemSpec,
        *,
        require_connected_masters: bool = True,
        master_broadcasts: bool = False,
    ):
        super().__init__(spec)
        self.require_connected_masters = require_connected_masters
        self.master_broadcasts = master_broadcasts

    def _register_probes(self, telemetry) -> None:
        super()._register_probes(telemetry)
        # stale propagated updates suppressed at replicas: the lazy-master
        # analogue of lazy-group's reconciliations
        metrics = self.metrics
        telemetry.counter_rate("stale_rate", lambda: metrics.stale_updates)

    # ------------------------------------------------------------------ #
    # root (master) transaction
    # ------------------------------------------------------------------ #

    def _phase_admission(self, ctx: TxnContext) -> None:
        """"A node wanting to update an object must be connected to the
        object owner", unless ``require_connected_masters`` is off.  Unlike
        the group strategies the release set starts empty: a committed-read
        origin that masters nothing holds nothing."""
        masters_needed = {
            self._owner(op.oid) for op in ctx.ops if not op.is_read
        }
        if self.require_connected_masters and not self._reachable(
            ctx.origin, masters_needed
        ):
            self._refuse(ctx)

    def _propagate(self, origin: int, txn: Transaction) -> None:
        """Ship committed master updates to every other replica.

        Default: one broadcast from the originator per destination.  With
        ``master_broadcasts``: each object's master sends its own slice, so
        every (master, slave) pair is a FIFO commit-order stream.

        A node that masters every written object is already current;
        everyone else (including the originator, for remote-mastered
        objects) gets a slave refresh — N transactions total (Table 1).
        """
        if not self.master_broadcasts:
            return super()._propagate(origin, txn)
        updates = self._shipped_updates(txn)
        for node_id, needed in self._needed_by_holder(
            updates, self._mastered_at
        ):
            by_master: Dict[int, List[ReplicaUpdate]] = {}
            for update in needed:
                by_master.setdefault(
                    self._owner(update.oid), []
                ).append(update)
            for master_id, slice_updates in by_master.items():
                self.network.send(
                    master_id, node_id, self.SHIP, (slice_updates, 0)
                )

    # ------------------------------------------------------------------ #
    # slave application
    # ------------------------------------------------------------------ #

    def handle_message(self, node: NodeContext, msg: Message):
        if msg.kind != self.SHIP:
            raise ReplicationError(f"lazy-master got unexpected {msg.kind}")
        # "If the record timestamp is newer than a replica update
        # timestamp, the update is 'stale' and can be ignored."
        return self._apply_shipped(node, msg, self._thomas_write_rule)
