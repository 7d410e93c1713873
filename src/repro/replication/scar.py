"""SCAR: stale-tolerant reads with logical-timestamp validation.

After *SCAR* (Lu, Yu & Madden; see PAPERS.md): replicas serve **stale
local reads without any coordination**, and correctness is recovered at
commit time by **validating logical timestamps at the master copies**.  A
transaction runs entirely against its origin's replica state, recording
the timestamp of everything it observed; at commit it

1. X-locks its written objects at their masters *in global object order*
   (so SCAR transactions cannot deadlock each other — conflicts surface
   as short waits, never waits-for cycles),
2. validates every observed timestamp against the master copies — a
   mismatch means some transaction committed in between, and the
   transaction takes a clean **validation abort** (counted in
   ``cert_aborts``; nothing was installed, nothing is lost),
3. installs its writes at the masters and commits, then
4. propagates the new versions to the remaining replicas asynchronously,
   with lazy-master-style stale suppression at the receivers.

Where deferred update centralises certification at a sequencer node, SCAR
distributes it across the masters: validation piggybacks on the lock
round, so there is no single certifier to crash or partition away — but
writes do pay master RPC rounds, like lazy-master's.

The commit-protocol pipeline: ``execute -> certify -> commit ->
propagate``.  Reads never take locks (the strategy ignores
``lock_reads``; stale tolerance *is* its read policy).
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
from repro.storage.lock_manager import LockMode


class ScarSystem(MasterOwnership, ReplicatedSystem):
    """Stale reads + commit-time timestamp validation at the masters."""

    name = "scar"
    PHASES = ("execute", "certify", "commit", "propagate")

    def __init__(self, spec: SystemSpec, *,
                 ownership: Optional[Dict[int, int]] = None):
        super().__init__(spec)
        # master copies hold the authoritative timestamps
        self._bind_ownership(ownership)
        self.validated = 0
        self.blocked_by_disconnect = 0

    def _register_probes(self, telemetry) -> None:
        super()._register_probes(telemetry)
        telemetry.counter_rate(
            "cert_abort_rate",
            lambda: self.metrics.extra.get("cert_aborts", 0),
        )
        telemetry.counter_rate(
            "replica_update_rate", lambda: self.metrics.replica_updates
        )

    # ------------------------------------------------------------------ #
    # pipeline phases
    # ------------------------------------------------------------------ #

    def _phase_execute(self, ctx: TxnContext):
        """Coordination-free execution against local (possibly stale) state."""
        # nothing is charged or locked here: the action's cost is paid
        # when the masters install it, and they join the release set only
        # during certification
        return self._execute_optimistic(ctx, compute_time=0.0)

    def _phase_certify(self, ctx: TxnContext):
        """Lock written objects at their masters, then validate timestamps.

        Locks are acquired in ascending object order across all masters, so
        two SCAR transactions always collide in the same direction — waits,
        not deadlocks.  Validation re-reads each observed object's master
        timestamp *after* locking: a mismatch proves a concurrent commit
        and aborts the transaction before it installs anything.
        """
        txn = ctx.txn
        reads = ctx.scratch["reads"]
        writes = ctx.scratch["writes"]
        if not writes:
            # read-only fast path: stale local reads are the point of SCAR —
            # they commit without any master round or validation
            return
        write_oids = sorted({oid for oid, _ts, _v, _op in writes})
        masters_needed = {
            self.ownership[oid]
            for oid in write_oids + [oid for oid, _ts in reads]
        }
        if not self._reachable(ctx.origin, masters_needed):
            self.blocked_by_disconnect += 1
            self._abort_everywhere(txn, ctx.touched, reason="master-unreachable")
            ctx.finished = True
            return
        # a DeadlockAbort here is a crash interrupt, or a cycle against a
        # non-SCAR housekeeping transaction
        for oid in write_oids:
            master = self.master_of(oid)
            if (
                master.node_id != ctx.origin
                and self.network.message_delay > 0
            ):
                # lock-request RPC to the master
                yield self.engine.timeout(self.network.message_delay)
            event = master.locks.acquire(txn, oid, LockMode.EXCLUSIVE)
            if event is not None:
                yield event
                txn.require_active()
            if master not in ctx.touched:
                ctx.touched.append(master)
        stale = None
        for oid, observed_ts in reads:
            if self.master_of(oid).store.read(oid).ts != observed_ts:
                stale = oid
                break
        if stale is None:
            for oid, observed_ts, _value, _op in writes:
                if self.master_of(oid).store.read(oid).ts != observed_ts:
                    stale = oid
                    break
        if stale is not None:
            self.metrics.bump("cert_aborts")
            self._trace("validation-abort", txn=txn.txn_id, oid=stale)
            self._abort_everywhere(txn, ctx.touched, reason="validation")
            ctx.finished = True
            return
        self.validated += 1

    def _phase_commit(self, ctx: TxnContext):
        """Install validated writes at the masters, then commit."""
        txn = ctx.txn
        updates: List[ReplicaUpdate] = []
        for oid, observed_ts, value, op in ctx.scratch.get("writes", ()):
            master = self.master_of(oid)
            new_ts = master.clock.tick()
            # the X lock from certification makes this a fast path (only a
            # crash interrupt can abort the install)
            yield from master.tm.execute_install(txn, oid, value, new_ts)
            self.metrics.actions += 1
            updates.append(
                ReplicaUpdate(
                    oid=oid, old_ts=observed_ts, new_ts=new_ts,
                    new_value=value, op=op, root_txn_id=txn.txn_id,
                )
            )
        ctx.scratch["updates"] = updates
        self._commit_everywhere(txn, ctx.touched)

    def _phase_propagate(self, ctx: TxnContext) -> None:
        """Asynchronously refresh the non-master replicas."""
        self._fan_out(
            ctx.origin, "scar-update", ctx.scratch["updates"],
            self._mastered_at,
        )

    # ------------------------------------------------------------------ #
    # replica application
    # ------------------------------------------------------------------ #

    def handle_message(self, node: NodeContext, msg: Message):
        if msg.kind != "scar-update":
            raise ReplicationError(f"scar got unexpected {msg.kind}")
        # lazy-master-style stale suppression at the receivers
        return self._apply_shipped(node, msg, self._thomas_write_rule)
