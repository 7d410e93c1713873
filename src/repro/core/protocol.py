"""The two-tier replication system (paper section 7, Figures 5 and 6).

Base nodes run lazy-master replication among themselves (the base tier *is*
a :class:`~repro.replication.lazy_master.LazyMasterSystem`); mobile nodes are
extra replicas that are usually dark.  The class adds:

* tentative execution at mobile nodes (via :class:`~repro.core.mobile.MobileNode`),
* the five-step reconnect exchange,
* base re-execution of tentative transactions — the same phase pipeline
  every transaction runs, with the acceptance criterion as its ``certify``
  phase and the notice closing ``propagate``; deadlock victims are
  resubmitted by the shared driver ("If a base transaction deadlocks, it is
  resubmitted and reprocessed until it succeeds"),
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
from repro.replication.pipeline import TxnContext
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
    #: lazy-master's lifecycle plus the paper's section 7 step: when the
    #: transaction re-executes a tentative record, ``certify`` is the
    #: record's acceptance criterion and ``propagate`` ends with its notice
    PHASES = ("admission", "execute", "certify", "commit", "propagate")
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
            raise ConfigurationError(
                f"num_base ({num_base}) exceeds the spec's num_nodes "
                f"({num_nodes}); num_nodes counts base and mobile nodes"
            )
        for oid, owner in (mobile_mastered or {}).items():
            if not num_base <= owner < num_nodes:
                raise ConfigurationError(
                    f"mobile_mastered[{oid}] = {owner} is not a mobile node id"
                )
        # set before super().__init__: the placement binds against the base
        # tier, via our _placement_scope_nodes override
        self.num_base = num_base
        self.num_mobile = num_nodes - num_base
        # overrides the placement's (base-tier) master; mobiles hold full
        # replicas, so the owner always has a copy
        self.mobile_mastered: Dict[int, int] = dict(mobile_mastered or {})
        # filled below; exists now for the telemetry probe to close over
        self.mobiles: Dict[int, MobileNode] = {}
        super().__init__(spec, **kwargs)
        self.cascade_rejections = cascade_rejections
        # base_divergence() and the oracle compare only the master tier
        self.base_ids = list(range(num_base))
        self.scope = TransactionScope(self.mobile_mastered, spec.db_size)
        self.mobiles.update(
            (mid, MobileNode(
                self._proxy, mid, host_base_id=(mid - num_base) % num_base
            ))
            for mid in range(num_base, num_nodes)
        )

    def _placement_scope_nodes(self) -> int:
        return self.num_base

    def _owner(self, oid: int) -> int:
        mobile = self.mobile_mastered.get(oid)
        return self.placement.master(oid) if mobile is None else mobile

    def _register_probes(self, telemetry) -> None:
        # called from ReplicatedSystem.__init__, before self.mobiles is
        # filled; the closures only run at tick time (first tick at
        # t = interval > 0)
        super()._register_probes(telemetry)
        mobiles, metrics = self.mobiles, self.metrics
        telemetry.gauge(
            "tentative_queue",
            lambda: sum(len(m.pending_transactions) for m in mobiles.values()),
        )
        telemetry.counter_rate(
            "rejection_rate", lambda: metrics.tentative_rejected
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
            poisoned = tainted_oids.intersection(op.oid for op in record.ops)
            if poisoned:
                # refused by its place in the replay order, so it never
                # becomes a base transaction
                self._settle(
                    record,
                    "depends on tentative results of a rejected "
                    f"transaction (objects {sorted(poisoned)})",
                    why="cascade",
                )
            else:
                yield from self.reexecute(record)
            if (
                self.cascade_rejections
                and record.status is TentativeStatus.REJECTED
            ):
                tainted_oids.update(
                    op.oid for op in record.ops if not op.is_read
                )
            replayed.append(record)
        # Step 5, the accept/reject notices, is already on the wire: every
        # settled record sent its own.
        return replayed

    # ------------------------------------------------------------------ #
    # base re-execution: the pipeline with a tentative record riding along
    # ------------------------------------------------------------------ #

    def reexecute(self, record: TentativeTransaction):
        """Generator: re-run one tentative transaction as a base
        transaction at its mobile's host base, and settle it.

        "During this reprocessing, the base transaction reads and writes
        object master copies using a lazy-master execution model."  It is
        an ordinary user transaction of this system — same driver, same
        lazy-master execute (writes at the master copies, a plain read at
        the host's own copy when it holds one, one ``message_delay`` per
        remote copy), same deadlock resubmission (``retry_deadlocks`` /
        ``max_retries``), same crash undo — whose ``certify`` phase is the
        record's acceptance criterion and whose ``propagate`` phase ends
        with the notice.
        """
        host = self.mobiles[record.mobile_id].host_base_id
        txn = yield from self._run_with_retries(
            host, record.ops, f"base:{record.label or record.seq}", record
        )
        if record.pending:
            # never reached its acceptance test: the host or a master is
            # down, or it fell to deadlock with resubmission spent (or off)
            self._settle(
                record, f"base transaction aborted: {txn.abort_reason}"
            )

    def _settle(self, record: TentativeTransaction,
                rejection: Optional[str] = None, why: str = "") -> None:
        """Decide ``record`` — rejected with diagnostic ``rejection`` when
        one is given, else accepted — and send the mobile its notice from
        the host base (reconnect step 5; it parks while either end is
        down).  ``why`` overrides the diagnostic in the trace line."""
        if rejection is None:
            record.status = TentativeStatus.ACCEPTED
            self.metrics.tentative_accepted += 1
        else:
            record.status = TentativeStatus.REJECTED
            record.diagnostic = rejection
            self.metrics.tentative_rejected += 1
            self._trace("reject", mobile=record.mobile_id, seq=record.seq,
                        why=why or rejection)
        self.network.send(
            self.mobiles[record.mobile_id].host_base_id,
            record.mobile_id,
            "tentative-notice",
            (record.seq, record.status, record.diagnostic),
        )

    def _phase_certify(self, ctx: TxnContext) -> None:
        """The acceptance criterion: tentative outputs against the base
        transaction's.  A transaction submitted directly at a connected
        node has no tentative outputs to answer for."""
        record = ctx.record
        if record is None:
            return
        txn = ctx.txn
        accepted, why = record.acceptance.check(
            record.tentative_outputs, [u.new_value for u in txn.updates]
        )
        if not accepted:
            # "the base transaction is aborted and a diagnostic message is
            # returned to the mobile node" — a rejection, not an abort:
            # counted in tentative_rejected, never in metrics.aborts
            txn.mark_aborted(self.engine.now, reason="acceptance")
            for node in ctx.touched:
                node.tm.finish_abort_local(txn)
            self._settle(record, why)
            ctx.finished = True

    def _phase_propagate(self, ctx: TxnContext) -> None:
        super()._phase_propagate(ctx)
        record = ctx.record
        if record is not None:
            # the slaves are being refreshed; now tell the mobile
            record.base_txn_id = ctx.txn.txn_id
            self._settle(record)

    # ------------------------------------------------------------------ #
    # local transactions on mobile-mastered data
    # ------------------------------------------------------------------ #

    def submit_local(self, mobile_id: int, ops: Sequence[Operation]):
        """A transaction purely over data mastered at this mobile node.

        "Local transactions that read and write only local data can be
        designed in any way you like."  They execute at the mobile's own
        master copies — even while disconnected — and their replica updates
        park in the outbound queue until reconnect.
        """
        ops = list(ops)
        for op in ops:
            if not op.is_read and self._owner(op.oid) != mobile_id:
                raise ScopeViolationError(
                    f"object {op.oid} is not mastered at mobile {mobile_id}; "
                    "use a tentative transaction instead"
                )
        return self.engine.process(
            self._run_local_master(mobile_id, ops),
            name=f"local@{mobile_id}",
        )

    def _run_local_master(self, mobile_id: int, ops: List[Operation]):
        node = self.nodes[mobile_id]
        txn = node.tm.begin()
        try:
            for op in ops:
                yield from node.tm.execute(txn, op)
                if not op.is_read:
                    self.metrics.actions += 1
        except DeadlockAbort as exc:
            exc.__traceback__ = None  # a cycle to the system (see _run)
            self._abort_everywhere(txn, [node], reason=exc.reason)
            return txn
        self._commit_everywhere(txn, [node])
        self._propagate(mobile_id, txn)
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

    def base_converged(self) -> bool:
        return self.base_divergence() == 0
