"""Deferred update replication: execute locally, certify, then apply.

*Parallel Deferred Update Replication* (Pacheco, Sciascia & Pedone; see
PAPERS.md): a transaction executes **lock-free** at its origin against
committed replica state, buffering its writes and recording the version of
everything it observed.  At commit time the read/write set is broadcast —
here through a sequencer/certifier node that defines the total order — and
**certified**: if any observed version has been superseded by a
concurrently certified transaction, the transaction aborts (first
committer wins); otherwise its write-set is applied at every replica.

Two properties make this the first post-1996 strategy in the zoo:

* **no user-transaction locking** — conflicts cost a clean certification
  abort instead of a distributed deadlock, so the danger rate escapes the
  cube law (a certification abort needs only *two* overlapping
  transactions, like lazy-group's reconciliations, but unlike those it
  never loses an update);
* **read-only transactions skip certification** entirely and commit after
  one local round — the PDUR fast path.

The certifier assigns each certified write a timestamp from its own
Lamport clock, so write timestamps are globally monotone in certification
order and replicas converge under duplication/reordering through the same
stale-suppression test lazy-master uses.  Certification itself is
modelled as instantaneous at message delivery (the parallel-certification
result: independent transactions certify concurrently, so the certifier
adds latency but no serial bottleneck residence).

The commit-protocol pipeline: ``execute -> certify -> commit``, with the
apply leg running as housekeeping transactions at each replica.
"""

from __future__ import annotations

from typing import Dict

from repro.exceptions import DeadlockAbort, ReplicationError
from repro.network.message import Message
from repro.replication.base import (
    NodeContext,
    ReplicatedSystem,
    ReplicaUpdate,
    SystemSpec,
)
from repro.replication.pipeline import TxnContext
from repro.storage.versioning import Timestamp

_new = tuple.__new__  # ReplicaUpdate(*fields) without the Python frame


class DeferredUpdateSystem(ReplicatedSystem):
    """Deferred update replication with parallel certification.

    Node 0 hosts the certification service.  Requests and decisions
    travel the normal network path, so the certifier inherits every fault
    the plan throws at its node — crash parks certification until
    recovery, partition stalls it until heal.
    """

    name = "deferred-update"
    PHASES = ("execute", "certify", "commit")

    def __init__(self, spec: SystemSpec):
        super().__init__(spec)
        self.certifier_id = 0
        #: the certifier's version table: oid -> last certified write ts.
        #: An absent entry means "still at its initial version", which any
        #: observed genesis timestamp trivially matches.
        self._cert_versions: Dict[int, Timestamp] = {}
        #: origin-side decision events, keyed by txn id
        self._decisions: Dict[int, object] = {}
        self.certified = 0

    def _register_probes(self, telemetry) -> None:
        super()._register_probes(telemetry)
        metrics = self.metrics
        telemetry.counter_rate(
            "cert_abort_rate", lambda: metrics.extra.get("cert_aborts", 0)
        )
        telemetry.counter_rate(
            "replica_update_rate", lambda: metrics.replica_updates
        )

    # ------------------------------------------------------------------ #
    # pipeline phases (the origin transaction)
    # ------------------------------------------------------------------ #

    def _phase_execute(self, ctx: TxnContext):
        """Lock-free local execution against committed replica state."""
        # the compute cost of each action is paid here; the install cost
        # is paid at apply time by every replica, like any lazy stream.
        # Lock-free execution holds nothing, so a crash of the origin
        # mid-run leaves an empty undo set.
        return self._execute_optimistic(ctx, compute_time=self.action_time)

    def _phase_certify(self, ctx: TxnContext):
        """Ship the read/write set to the certifier and await its verdict."""
        txn = ctx.txn
        writes = ctx.scratch["writes"]
        if not writes:
            # the PDUR read-only fast path: nothing to certify, commit now
            return
        event = self.engine.event("du-decision")
        self._decisions[txn.txn_id] = event
        self.network.send(
            ctx.origin,
            self.certifier_id,
            "cert-request",
            (ctx.origin, txn.txn_id, tuple(ctx.scratch["reads"]),
             tuple(writes)),
        )
        try:
            committed = yield event
        except DeadlockAbort:  # CrashAbort: origin died waiting
            self._decisions.pop(txn.txn_id, None)
            raise
        if not committed:
            self.metrics.bump("cert_aborts")
            self._abort_everywhere(txn, [], reason="certification")
            ctx.finished = True

    def _phase_commit(self, ctx: TxnContext) -> None:
        # the origin held no locks and wrote no WAL entries; its own store
        # converges through the same du-apply stream as everyone else's
        self._commit_everywhere(ctx.txn, [self.nodes[ctx.origin]])

    # ------------------------------------------------------------------ #
    # certification service + replica application
    # ------------------------------------------------------------------ #

    def handle_message(self, node: NodeContext, msg: Message):
        if msg.kind == "cert-request":
            self._certify(node, msg.payload)
            return None
        if msg.kind == "du-decision":
            txn_id, ok = msg.payload
            event = self._decisions.pop(txn_id, None)
            if event is not None and event.pending:
                event.succeed(ok)
            return None
        if msg.kind == "du-apply":
            # certified timestamps are monotone in certification order,
            # so stale suppression settles duplicates and reordering
            return self._apply_shipped(node, msg, self._thomas_write_rule)
        raise ReplicationError(f"deferred-update got unexpected {msg.kind}")

    def _certify(self, node: NodeContext, payload) -> None:
        """Validate one read/write set against the version table.

        Runs atomically at message delivery: certification of one
        transaction is a table scan over its footprint, and independent
        transactions interleave freely between deliveries — the
        "parallel certification" property.
        """
        origin, txn_id, reads, writes = payload
        table = self._cert_versions
        ok = True
        for oid, observed_ts in reads:
            current = table.get(oid)
            if current is not None and current != observed_ts:
                ok = False
                break
        if ok:
            for oid, observed_ts, _value, _op in writes:
                current = table.get(oid)
                if current is not None and current != observed_ts:
                    ok = False
                    break
        if not ok:
            self._trace("cert-abort", txn=txn_id, origin=origin)
            self.network.send(
                node.node_id, origin, "du-decision", (txn_id, False)
            )
            return
        # certified: stamp each write from the certifier's clock, so
        # timestamps are monotone in certification order and the replicas'
        # stale-suppression test survives duplication and reordering
        updates = []
        for oid, observed_ts, value, op in writes:
            new_ts = node.clock.tick()
            table[oid] = new_ts
            updates.append(_new(
                ReplicaUpdate, (oid, observed_ts, new_ts, value, op, txn_id)
            ))
        self.certified += 1
        self._trace("certify", txn=txn_id, writes=len(updates))
        self.network.send(node.node_id, origin, "du-decision", (txn_id, True))
        # every replica holding a written object applies it — the origin's
        # own store included, so nobody is left out of the fan-out
        self._fan_out(node.node_id, "du-apply", updates)
