"""Differential test: base re-execution through ``ReplicatedSystem._run``
against the hand-rolled lifecycle it replaced.

:class:`ReferenceTwoTier` carries the replay as it stood before it became
a ``PHASES`` composition — its own ``begin``, execute loop, deadlock undo,
retry loop and three refuse-and-notify sites — verbatim but for the name of
the backoff stream (the driver draws from ``retry-backoff``; the draws must
line up for clocks to) and for where its execute loop reads: like every
lazy-master read, a plain read uses the host's copy when it has one, and a
copy or master on another node costs one ``message_delay``.  Over
hypothesis-drawn reconnect schedules the two must agree on everything a
user can see, and differ only where the driver now accounts a deadlocked
base attempt as the abort it is.
"""

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AlwaysAccept,
    IdenticalOutputs,
    NonNegativeOutputs,
    TwoTierSystem,
)
from repro.core.tentative import TentativeStatus
from repro.exceptions import DeadlockAbort
from repro.network.message import reset_message_ids
from repro.placement import Placement
from repro.replication import SystemSpec
from repro.sim.tracing import Tracer
from repro.txn.ops import IncrementOp, ReadOp, WriteOp
from repro.txn.transaction import reset_txn_ids


class ReferenceTwoTier(TwoTierSystem):
    """Two-tier with the pre-pipeline replay (see module docstring)."""

    def _reconnect(self, mobile):
        mobile.tentative.discard()
        self.network.reconnect(mobile.node_id)
        yield self.engine.timeout(self.network.message_delay)
        replayed = []
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
            yield from self._replay_by_hand(mobile, record)
            if record.status is TentativeStatus.REJECTED:
                tainted_oids |= {
                    op.oid for op in record.ops if not op.is_read
                }
            replayed.append(record)
        return replayed

    def _replay_by_hand(self, mobile, record):
        host = self.nodes[mobile.host_base_id]
        attempts = 0
        while True:
            txn = host.tm.begin(label=f"base:{record.label or record.seq}")
            involved: List = []
            try:
                for op in record.ops:
                    master = self.master_of(op.oid)
                    if op.is_read and not master.tm.lock_reads:
                        # a plain read uses the host's copy when it has one
                        site = self._site_for(host.node_id, op.oid)
                    else:
                        site = master
                        if master not in involved:
                            involved.append(master)  # its locks need releasing
                    if site is not host and self.network.message_delay > 0:
                        # RPC round to the remote copy
                        yield self.engine.timeout(self.network.message_delay)
                    yield from site.tm.execute(txn, op)
                    if not op.is_read:
                        self.metrics.actions += 1
            except DeadlockAbort as exc:
                txn.mark_aborted(self.engine.now, reason=exc.reason)
                for node in involved:
                    node.tm.finish_abort_local(txn)
                if exc.reason != "deadlock":
                    record.status = TentativeStatus.REJECTED
                    record.diagnostic = "host base crashed during reprocessing"
                    self.metrics.tentative_rejected += 1
                    return
                attempts += 1
                if attempts > self.max_retries:
                    record.status = TentativeStatus.REJECTED
                    record.diagnostic = "base transaction livelocked"
                    self.metrics.tentative_rejected += 1
                    return
                self.metrics.restarts += 1
                backoff = self.rng.stream("retry-backoff").uniform(
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
                self._propagate(host.node_id, txn)
                record.status = TentativeStatus.ACCEPTED
                record.base_txn_id = txn.txn_id
                self.metrics.tentative_accepted += 1
            else:
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


class NoticeBeforeRefresh(TwoTierSystem):
    """Mutant: tells the mobile before the slaves are refreshed."""

    def _phase_propagate(self, ctx):
        ctx.record.base_txn_id = ctx.txn.txn_id
        self._settle(ctx.record)
        self._propagate(ctx.origin, ctx.txn)


class CertifyBeforeExecute(TwoTierSystem):
    """Mutant: judges the base outputs before there are any."""

    PHASES = ("admission", "certify", "execute", "commit", "propagate")


_OIDS = st.integers(0, 5)
_OPS = st.one_of(
    st.builds(ReadOp, _OIDS),
    st.builds(IncrementOp, _OIDS, st.sampled_from([-70, -30, 20])),
    st.builds(WriteOp, _OIDS, st.sampled_from([5, 150])),
)
_CRITERIA = {
    "always": AlwaysAccept, "identical": IdenticalOutputs,
    "non-negative": NonNegativeOutputs,
}
_TXNS = st.lists(
    st.tuples(st.lists(_OPS, min_size=1, max_size=3),
              st.sampled_from(sorted(_CRITERIA))),
    min_size=1, max_size=4,
)
#: per mobile: its tentative transactions and when it reconnects — offsets
#: within a few action times of each other, so base transactions overlap
_MOBILES = st.lists(
    st.tuples(_TXNS, st.sampled_from([0.0, 0.004, 0.01])),
    min_size=2, max_size=3,
)
_SCHEDULES = st.tuples(
    st.sampled_from([(1, None), (2, None), (3, None),
                     (2, "hash:k=2"), (3, "hash:k=2")]),
    _MOBILES,
    st.booleans(),  # lock_reads
    st.booleans(),  # cascade_rejections
)


def _play(cls, schedule):
    """Run one schedule on ``cls``; returns everything observable."""
    (num_base, placement), mobiles, lock_reads, cascade = schedule
    reset_txn_ids()
    reset_message_ids()
    tracer = Tracer(limit=100_000)
    system = cls(
        SystemSpec(
            num_nodes=num_base + len(mobiles), db_size=6, initial_value=100,
            action_time=0.01, message_delay=0.002, seed=7,
            lock_reads=lock_reads, tracer=tracer,
            placement=Placement.from_spec(placement) if placement else None,
        ),
        num_base=num_base, cascade_rejections=cascade,
    )
    sends = []
    real_send = system.network.send

    def send(src, dst, kind, payload):
        sends.append((system.engine.now, src, dst, kind))
        return real_send(src, dst, kind, payload)

    system.network.send = send
    for mobile_id, (txns, _) in zip(system.mobiles, mobiles):
        system.disconnect_mobile(mobile_id)
        for ops, criterion in txns:
            system.mobile(mobile_id).submit_tentative(
                ops, _CRITERIA[criterion]()
            )
    system.run()
    start = system.engine.now
    for mobile_id, (_, offset) in zip(system.mobiles, mobiles):
        system.engine.schedule_at(
            start + offset, system.reconnect_mobile, mobile_id
        )
    end_time = system.run()
    metrics = system.metrics.as_dict()
    aborts = metrics.pop("aborts")
    return {
        "records": [
            [(r.seq, r.status, r.diagnostic) for r in mobile.log]
            for mobile in system.mobiles.values()
        ],
        "notices": [mobile.notices for mobile in system.mobiles.values()],
        "stores": [node.store.snapshot() for node in system.nodes],
        "end_time": end_time,
        "metrics": metrics,
        "sends": sends,
        # a deadlocked base attempt is an abort only on the driver path
        "trace": [
            line for line in (e.format() for e in tracer.events())
            if not (" abort " in line and "deadlock" in line)
        ],
    }, aborts


#: two mobiles race over the same two accounts in opposite orders; one
#: overdraws account 0 under the non-negative criterion
_PINNED = (
    (1, None),
    [
        ([([IncrementOp(0, -70), IncrementOp(1, 20)], "non-negative")], 0.0),
        ([([IncrementOp(1, -30), IncrementOp(0, -70)], "non-negative")], 0.0),
    ],
    False,
    False,
)


class TestReexecutionMatchesTheHandRolledReplay:
    @settings(max_examples=300, deadline=None)
    @given(_SCHEDULES)
    def test_driver_path_matches_the_reference(self, schedule):
        seen, aborts = _play(TwoTierSystem, schedule)
        reference, reference_aborts = _play(ReferenceTwoTier, schedule)
        assert seen == reference
        assert aborts - reference_aborts == seen["metrics"]["restarts"]

    def test_pinned_schedule_deadlocks_rejects_and_accepts(self):
        """The pinned schedule exercises what the mutants are judged on:
        a base deadlock resubmitted, one acceptance, one rejection."""
        seen, aborts = _play(TwoTierSystem, _PINNED)
        assert seen == _play(ReferenceTwoTier, _PINNED)[0]
        assert seen["metrics"]["restarts"] == aborts == 1
        assert seen["metrics"]["tentative_accepted"] == 1
        assert seen["metrics"]["tentative_rejected"] == 1

    def test_notifying_before_the_slave_refresh_is_caught(self):
        assert _play(NoticeBeforeRefresh, _PINNED) != _play(
            ReferenceTwoTier, _PINNED
        )

    def test_certifying_before_execute_finished_is_caught(self):
        assert _play(CertifyBeforeExecute, _PINNED) != _play(
            ReferenceTwoTier, _PINNED
        )
