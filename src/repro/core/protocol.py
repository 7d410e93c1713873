"""The two-tier replication system (paper section 7, Figures 5 and 6).

Base nodes run lazy-master replication among themselves (the base tier *is*
a :class:`~repro.replication.lazy_master.LazyMasterSystem`); mobile nodes are
extra replicas that are usually dark.  The class adds:

* tentative execution at mobile nodes (via :class:`~repro.core.mobile.MobileNode`),
* the five-step reconnect exchange,
* base re-execution of tentative transactions with acceptance criteria,
  resubmitting deadlock victims until they succeed ("If a base transaction
  deadlocks, it is resubmitted and reprocessed until it succeeds"),
* local transactions on mobile-mastered data that work while disconnected.

Durability and convergence follow the paper: a transaction is durable once
its base transaction commits; replica updates flow to every node (parked for
dark mobiles by the network's store-and-forward queues); the master state
never diverges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.mobile import MobileNode
from repro.core.scope import TransactionScope
from repro.core.tentative import TentativeStatus, TentativeTransaction
from repro.exceptions import (
    ConfigurationError,
    DeadlockAbort,
    ScopeViolationError,
)
from repro.network.message import Message
from repro.replication.base import NodeContext, SystemSpec
from repro.replication.lazy_master import LazyMasterSystem
from repro.txn.ops import Operation


class TwoTierSystem(LazyMasterSystem):
    """Two-tier replication: base tier + mobile tier.

    Construct with a :class:`~repro.replication.base.SystemSpec` whose
    ``num_nodes`` counts *all* nodes, plus ``num_base`` — mobiles are the
    remainder (ids ``num_base .. num_nodes-1``)::

        TwoTierSystem(SystemSpec(num_nodes=4, db_size=100), num_base=1)

    The spec's placement spans the **base tier only**: base nodes shard
    (or fully replicate) the master copies among themselves, while mobile
    nodes always hold full replicas — a mobile must be able to execute
    tentative transactions over any object while dark.  Objects are
    mastered per the placement (round-robin over base nodes under full
    replication) unless overridden by ``mobile_mastered`` ("A mobile node
    may be the master of some data items").  Base transactions retry
    deadlocks by default, per the paper.  Remaining keyword arguments are
    :class:`~repro.replication.lazy_master.LazyMasterSystem`'s.
    """

    name = "two-tier"
    default_retry_deadlocks = True

    def __init__(
        self,
        spec: SystemSpec,
        *,
        num_base: int = 1,
        mobile_mastered: Optional[Dict[int, int]] = None,
        cascade_rejections: bool = False,
        **kwargs,
    ):
        num_nodes = spec.num_nodes
        if num_base <= 0:
            raise ConfigurationError("need at least one base node")
        if num_base > num_nodes:
            raise ConfigurationError("num_mobile must be >= 0")
        for oid, owner in (mobile_mastered or {}).items():
            if not num_base <= owner < num_nodes:
                raise ConfigurationError(
                    f"mobile_mastered[{oid}] = {owner} is not a mobile node id"
                )
        # set before super().__init__: the placement binds against the base
        # tier, via our _placement_scope_nodes override
        self.num_base = num_base
        self.num_mobile = num_nodes - num_base
        super().__init__(spec, **kwargs)
        self.cascade_rejections = cascade_rejections
        self.base_ids = list(range(num_base))
        # mobile mastership overrides the placement-derived (base-tier)
        # default; mobiles hold full replicas, so the owner always has a copy
        for oid, owner in (mobile_mastered or {}).items():
            self.ownership[oid] = owner
        self.scope = TransactionScope(self.ownership, self.base_ids)
        self.mobiles: Dict[int, MobileNode] = {
            mid: MobileNode(self, mid, host_base_id=(mid - num_base) % num_base)
            for mid in range(num_base, num_nodes)
        }

    def _placement_scope_nodes(self) -> int:
        return self.num_base

    def _register_probes(self, telemetry) -> None:
        # called from ReplicatedSystem.__init__, before self.mobiles exists;
        # the closures only run at tick time (first tick at t = interval > 0)
        super()._register_probes(telemetry)
        telemetry.gauge(
            "tentative_queue",
            lambda: sum(
                len(m.pending_transactions) for m in self.mobiles.values()
            ),
        )
        telemetry.counter_rate(
            "rejection_rate", lambda: self.metrics.tentative_rejected
        )

    # ------------------------------------------------------------------ #
    # topology helpers
    # ------------------------------------------------------------------ #

    def mobile(self, node_id: int) -> MobileNode:
        return self.mobiles[node_id]

    def is_base(self, node_id: int) -> bool:
        return node_id < self.num_base

    def base_nodes(self) -> List[NodeContext]:
        return [self.nodes[i] for i in self.base_ids]

    def disconnect_mobile(self, mobile_id: int) -> None:
        """The mobile goes dark; replica updates start parking for it."""
        if self.is_base(mobile_id):
            raise ConfigurationError(f"node {mobile_id} is a base node")
        self.network.disconnect(mobile_id)

    # ------------------------------------------------------------------ #
    # the reconnect exchange (paper section 7, both node lists)
    # ------------------------------------------------------------------ #

    def reconnect_mobile(self, mobile_id: int):
        """Spawn the reconnect exchange for ``mobile_id`` as a process.

        The process value is the list of tentative transactions replayed
        (with final statuses).
        """
        mobile = self.mobiles[mobile_id]
        return self.engine.process(
            self._reconnect(mobile), name=f"reconnect@{mobile_id}"
        )

    def _reconnect(self, mobile: MobileNode):
        # Step 1: discard tentative object versions — they will be refreshed
        # from the masters.
        mobile.tentative.discard()

        # Step 2 + 4: rejoin the network.  The store-and-forward queues
        # flush: first the mobile's deferred outbound updates (replica
        # updates for mobile-mastered objects), then the inbound backlog of
        # base replica updates.
        self.network.reconnect(mobile.node_id)

        # Let the flushed replica-update transactions apply before replaying
        # tentative work, so base re-execution sees fresh master versions.
        yield self.engine.timeout(self.network.message_delay)

        # Step 3: replay tentative transactions in commit order.
        #
        # With cascading rejections on, a tentative transaction that read or
        # overwrote the tentative results of an already-rejected predecessor
        # fails too: "If the acceptance criteria requires the base and
        # tentative transaction have identical outputs, then subsequent
        # transactions reading tentative results written by T will fail
        # too."  (Weaker criteria may not want this, hence the option.)
        replayed: List[TentativeTransaction] = []
        tainted_oids: set = set()
        for record in list(mobile.log):
            if not record.pending:
                continue
            if self.cascade_rejections and tainted_oids:
                touched = {op.oid for op in record.ops}
                poisoned = touched & tainted_oids
                if poisoned:
                    record.status = TentativeStatus.REJECTED
                    record.diagnostic = (
                        "depends on tentative results of a rejected "
                        f"transaction (objects {sorted(poisoned)})"
                    )
                    self.metrics.tentative_rejected += 1
                    self._trace("reject", mobile=mobile.node_id,
                                seq=record.seq, why="cascade")
                    self.network.send(
                        self.nodes[mobile.host_base_id].node_id,
                        mobile.node_id,
                        "tentative-notice",
                        (record.seq, record.status, record.diagnostic),
                    )
                    tainted_oids |= {
                        op.oid for op in record.ops if not op.is_read
                    }
                    replayed.append(record)
                    continue
            yield from self._replay_tentative(mobile, record)
            if record.status is TentativeStatus.REJECTED:
                tainted_oids |= {
                    op.oid for op in record.ops if not op.is_read
                }
            replayed.append(record)

        # Step 5: the host's accept/reject notices are delivered as
        # messages; give zero-delay networks a chance to drain them now.
        return replayed

    # ------------------------------------------------------------------ #
    # base re-execution
    # ------------------------------------------------------------------ #

    def _replay_tentative(self, mobile: MobileNode, record: TentativeTransaction):
        """Re-run one tentative transaction as a base transaction.

        "During this reprocessing, the base transaction reads and writes
        object master copies using a lazy-master execution model."  Deadlock
        victims are resubmitted; acceptance failure aborts and notifies.
        """
        host = self.nodes[mobile.host_base_id]
        attempts = 0
        while True:
            txn = host.tm.begin(label=f"base:{record.label or record.seq}")
            involved: List[NodeContext] = []
            try:
                for op in record.ops:
                    master = self.master_of(op.oid)
                    if op.is_read:
                        if master.tm.lock_reads and master not in involved:
                            involved.append(master)  # S locks need releasing
                        yield from master.tm.execute(txn, op)
                        continue
                    if master not in involved:
                        involved.append(master)
                    yield from master.tm.execute(txn, op)
                    self.metrics.actions += 1
            except DeadlockAbort as exc:
                txn.mark_aborted(self.engine.now, reason=exc.reason)
                for node in involved:
                    node.tm.finish_abort_local(txn)
                if exc.reason != "deadlock":
                    # the host base crashed mid-reprocessing: resubmitting
                    # at a dead node would livelock, so reject instead
                    record.status = TentativeStatus.REJECTED
                    record.diagnostic = "host base crashed during reprocessing"
                    self.metrics.tentative_rejected += 1
                    return
                attempts += 1
                if attempts > self.max_retries:
                    # pathological livelock guard; surfaces as a rejection
                    record.status = TentativeStatus.REJECTED
                    record.diagnostic = "base transaction livelocked"
                    self.metrics.tentative_rejected += 1
                    return
                self.metrics.restarts += 1
                backoff = self.rng.stream("base-retry").uniform(
                    0, self.action_time * 2
                )
                yield self.engine.timeout(backoff)
                continue

            base_outputs = [u.new_value for u in txn.updates]
            accepted, why = record.acceptance.check(
                record.tentative_outputs, base_outputs
            )
            if accepted:
                self._commit_everywhere(txn, involved)
                self._propagate_to_slaves(host.node_id, txn)
                record.status = TentativeStatus.ACCEPTED
                record.base_txn_id = txn.txn_id
                self.metrics.tentative_accepted += 1
            else:
                # "the base transaction is aborted and a diagnostic message
                # is returned to the mobile node"
                txn.mark_aborted(self.engine.now, reason="acceptance")
                for node in involved:
                    node.tm.finish_abort_local(txn)
                record.status = TentativeStatus.REJECTED
                record.diagnostic = why
                self.metrics.tentative_rejected += 1
                self._trace("reject", mobile=mobile.node_id, seq=record.seq,
                            why=why)
            self.network.send(
                host.node_id,
                mobile.node_id,
                "tentative-notice",
                (record.seq, record.status, record.diagnostic),
            )
            return

    # ------------------------------------------------------------------ #
    # local transactions on mobile-mastered data
    # ------------------------------------------------------------------ #

    def submit_local(self, mobile_id: int, ops: Sequence[Operation],
                     label: str = ""):
        """A transaction purely over data mastered at this mobile node.

        "Local transactions that read and write only local data can be
        designed in any way you like."  They execute at the mobile's own
        master copies — even while disconnected — and their replica updates
        park in the outbound queue until reconnect.
        """
        ops = list(ops)
        for op in ops:
            if not op.is_read and self.ownership[op.oid] != mobile_id:
                raise ScopeViolationError(
                    f"object {op.oid} is not mastered at mobile {mobile_id}; "
                    "use a tentative transaction instead"
                )
        return self.engine.process(
            self._run_local_master(mobile_id, ops, label),
            name=f"local@{mobile_id}",
        )

    def _run_local_master(self, mobile_id: int, ops: List[Operation], label: str):
        node = self.nodes[mobile_id]
        txn = node.tm.begin(label=label)
        try:
            yield from self._execute_local(node, txn, ops)
        except DeadlockAbort as exc:
            self._abort_everywhere(txn, [node], reason=exc.reason)
            return txn
        self._commit_everywhere(txn, [node])
        self._propagate_to_slaves(mobile_id, txn)
        return txn

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #

    def handle_message(self, node: NodeContext, msg: Message):
        if msg.kind == "tentative-notice":
            mobile = self.mobiles.get(node.node_id)
            if mobile is not None:
                seq, status, why = msg.payload
                mobile.record_notice(seq, status, why)
            return None
        return super().handle_message(node, msg)

    # ------------------------------------------------------------------ #
    # convergence of the base tier
    # ------------------------------------------------------------------ #

    def base_divergence(self) -> int:
        """Objects whose value differs *across base nodes* — the paper's
        system-delusion test restricted to the master tier (mobiles may be
        legitimately stale while dark).  Under a partial base placement
        each object is compared only across its base replica set."""
        return self.divergence(self.base_ids)

    def base_converged(self) -> bool:
        return self.base_divergence() == 0
