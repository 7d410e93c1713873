"""Tests for the two-tier protocol — the paper's section 7, end to end."""

import pytest

from repro.core import (
    AlwaysAccept,
    IdenticalOutputs,
    NonNegativeOutputs,
    TwoTierSystem,
)
from repro.core.tentative import TentativeStatus
from repro.exceptions import ConfigurationError, ScopeViolationError
from repro.txn.ops import IncrementOp, ReadOp, WriteOp
from repro.replication import SystemSpec


def make(num_base=2, num_mobile=2, db_size=20, **kw):
    kw.setdefault("action_time", 0.001)
    kw.setdefault("initial_value", 100)
    extras = {k: kw.pop(k) for k in ("mobile_mastered", "cascade_rejections")
              if k in kw}
    return TwoTierSystem(
        SystemSpec(num_nodes=num_base + num_mobile, db_size=db_size, **kw),
        num_base=num_base, **extras)


class TestConstruction:
    def test_node_layout(self):
        system = make()
        assert system.num_nodes == 4
        assert system.base_ids == [0, 1]
        assert sorted(system.mobiles) == [2, 3]
        assert system.is_base(0) and not system.is_base(2)

    def test_objects_mastered_at_base_by_default(self):
        system = make()
        assert all(
            system.master_of(oid).node_id in (0, 1)
            for oid in range(system.db_size)
        )

    def test_mobile_mastered_override(self):
        system = make(mobile_mastered={7: 2})
        assert system.master_of(7).node_id == 2
        assert system.master_of(6).node_id in (0, 1)

    def test_invalid_mobile_master_rejected(self):
        with pytest.raises(ConfigurationError):
            make(mobile_mastered={7: 0})  # 0 is a base node

    def test_needs_base_node(self):
        with pytest.raises(ConfigurationError):
            TwoTierSystem(SystemSpec(num_nodes=1, db_size=5), num_base=0)

    def test_num_base_above_num_nodes_names_the_wrong_argument(self):
        with pytest.raises(ConfigurationError, match="num_base"):
            TwoTierSystem(SystemSpec(num_nodes=2, db_size=5), num_base=3)


class TestTentativeExecution:
    def test_disconnected_mobile_sees_tentative_values(self):
        """'If the mobile node queries this data it sees the tentative
        values.'"""
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([IncrementOp(0, -40)], AlwaysAccept())
        system.run()
        assert mobile.read(0) == 60  # tentative view
        assert mobile.master_value(0) == 100  # best-known master unchanged
        assert system.nodes[0].store.value(0) == 100  # real master unchanged

    def test_tentative_transactions_chain_locally(self):
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([IncrementOp(0, -40)], AlwaysAccept())
        mobile.submit_tentative([IncrementOp(0, -40)], AlwaysAccept())
        system.run()
        assert mobile.read(0) == 20
        assert len(mobile.pending_transactions) == 2
        assert system.metrics.tentative_committed == 2

    def test_scope_rule_enforced(self):
        system = make(mobile_mastered={5: 3})
        mobile2 = system.mobile(2)
        system.disconnect_mobile(2)
        p = mobile2.submit_tentative([WriteOp(5, 1)], AlwaysAccept())
        system.run()
        assert isinstance(p.exception, ScopeViolationError)

    def test_tentative_outputs_recorded(self):
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        p = mobile.submit_tentative(
            [IncrementOp(0, -40), ReadOp(1)], AlwaysAccept()
        )
        system.run()
        record = p.value
        assert record.tentative_outputs == [60]  # only update outputs


class TestReconnectExchange:
    def test_accepted_transaction_updates_master(self):
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([IncrementOp(0, -40)], AlwaysAccept())
        system.run()
        system.reconnect_mobile(2)
        system.run()
        assert system.nodes[0].store.value(0) == 60  # master updated
        assert mobile.master_value(0) == 60  # replica refreshed
        assert mobile.accepted_transactions
        assert system.metrics.tentative_accepted == 1

    def test_replay_in_commit_order(self):
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([WriteOp(0, 1)], AlwaysAccept())
        mobile.submit_tentative([WriteOp(0, 2)], AlwaysAccept())
        mobile.submit_tentative([WriteOp(0, 3)], AlwaysAccept())
        system.run()
        system.reconnect_mobile(2)
        system.run()
        assert system.nodes[0].store.value(0) == 3  # last writer in order

    def test_tentative_versions_discarded_on_reconnect(self):
        """Step 1: tentative versions are refreshed from the masters."""
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([IncrementOp(0, -40)], AlwaysAccept())
        system.run()
        assert len(mobile.tentative) == 1
        system.reconnect_mobile(2)
        system.run()
        assert len(mobile.tentative) == 0
        assert mobile.read(0) == 60  # now reads the refreshed master version

    def test_rejected_transaction_leaves_master_untouched(self):
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([IncrementOp(0, -150)], NonNegativeOutputs())
        system.run()
        system.reconnect_mobile(2)
        system.run()
        assert system.nodes[0].store.value(0) == 100  # aborted, rolled back
        rejected = mobile.rejected_transactions
        assert len(rejected) == 1
        assert "negative" in rejected[0].diagnostic
        assert system.metrics.tentative_rejected == 1
        assert system.base_converged()

    def test_rejection_notice_delivered_to_mobile(self):
        """Step 5: 'Accepts notice of the success or failure of each
        tentative transaction.'"""
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([IncrementOp(0, -150)], NonNegativeOutputs())
        system.run()
        system.reconnect_mobile(2)
        system.run()
        assert mobile.notices
        seq, status, why = mobile.notices[0]
        assert status is TentativeStatus.REJECTED
        assert "negative" in why

    def test_interleaved_base_updates_change_base_outcome(self):
        """The spouse scenario: somebody else spent the money first."""
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([IncrementOp(0, -80)], NonNegativeOutputs())
        system.run()
        # while the mobile is dark, a base transaction drains the account
        system.submit(0, [IncrementOp(0, -90)])
        system.run()
        system.reconnect_mobile(2)
        system.run()
        # 100 - 90 = 10; the -80 debit would go to -70: rejected
        assert system.nodes[0].store.value(0) == 10
        assert system.metrics.tentative_rejected == 1

    def test_different_but_acceptable_result_accepted(self):
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([IncrementOp(0, -80)], NonNegativeOutputs())
        system.run()
        system.submit(0, [IncrementOp(0, -15)])  # leaves 85: -80 is still fine
        system.run()
        system.reconnect_mobile(2)
        system.run()
        assert system.nodes[0].store.value(0) == 5
        assert system.metrics.tentative_accepted == 1

    def test_strict_identical_outputs_rejects_on_interference(self):
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        mobile.submit_tentative([IncrementOp(0, -10)], IdenticalOutputs())
        system.run()
        system.submit(0, [IncrementOp(0, -1)])
        system.run()
        system.reconnect_mobile(2)
        system.run()
        assert system.metrics.tentative_rejected == 1

    def test_parked_replica_updates_flush_on_reconnect(self):
        """Step 4: 'Accepts replica updates from the base node.'"""
        system = make()
        system.disconnect_mobile(2)
        system.submit(0, [WriteOp(3, 777)])
        system.run()
        assert system.mobile(2).master_value(3) == 100  # stale while dark
        system.reconnect_mobile(2)
        system.run()
        assert system.mobile(2).master_value(3) == 777


class TestMobileMasteredData:
    def test_local_transaction_while_disconnected(self):
        """'Local transactions that read and write only local data can be
        designed in any way you like.'"""
        system = make(mobile_mastered={5: 2})
        system.disconnect_mobile(2)
        p = system.submit_local(2, [WriteOp(5, 42)])
        system.run()
        assert p.value.state.value == "committed"
        assert system.nodes[2].store.value(5) == 42
        # bases have not seen it yet
        assert system.nodes[0].store.value(5) == 100

    def test_local_updates_propagate_on_reconnect(self):
        """Step 2: 'Sends replica updates for any objects mastered at the
        mobile node.'"""
        system = make(mobile_mastered={5: 2})
        system.disconnect_mobile(2)
        system.submit_local(2, [WriteOp(5, 42)])
        system.run()
        system.reconnect_mobile(2)
        system.run()
        assert system.nodes[0].store.value(5) == 42
        assert system.nodes[1].store.value(5) == 42

    def test_local_txn_on_foreign_object_rejected(self):
        system = make(mobile_mastered={5: 3})
        with pytest.raises(ScopeViolationError):
            system.submit_local(2, [WriteOp(5, 1)])


class TestKeyProperties:
    def test_commuting_transactions_zero_reconciliation(self):
        """Property 5: 'If all transactions commute, there are no
        reconciliations.'"""
        system = make(num_base=2, num_mobile=3)
        for mid in system.mobiles:
            system.disconnect_mobile(mid)
        for mid, mobile in system.mobiles.items():
            for _ in range(5):
                mobile.submit_tentative([IncrementOp(0, -1)], AlwaysAccept())
        system.run()
        for mid in system.mobiles:
            system.reconnect_mobile(mid)
        system.run()
        assert system.metrics.tentative_rejected == 0
        assert system.metrics.tentative_accepted == 15
        assert system.nodes[0].store.value(0) == 85
        assert system.base_converged()

    def test_base_tier_always_converged(self):
        """Property: the master database never suffers system delusion."""
        system = make(num_base=3, num_mobile=2, db_size=10)
        for mid in system.mobiles:
            system.disconnect_mobile(mid)
        for mobile in system.mobiles.values():
            for oid in range(5):
                mobile.submit_tentative(
                    [IncrementOp(oid, -30)], NonNegativeOutputs()
                )
        system.run()
        for mid in system.mobiles:
            system.reconnect_mobile(mid)
        system.run()
        assert system.base_divergence() == 0
        # and since everything drained, mobiles converged to base state too
        assert system.divergence() == 0

    def test_durability_at_base_commit(self):
        """Property 3: 'A transaction becomes durable when the base
        transaction completes.'"""
        system = make()
        mobile = system.mobile(2)
        system.disconnect_mobile(2)
        p = mobile.submit_tentative([IncrementOp(1, -5)], AlwaysAccept())
        system.run()
        record = p.value
        assert record.base_txn_id is None  # not durable yet
        system.reconnect_mobile(2)
        system.run()
        assert record.base_txn_id is not None
        assert record.status is TentativeStatus.ACCEPTED

    def test_connected_mobile_submits_base_transactions_directly(self):
        """'In the connected case, a two-tier system operates much like a
        lazy-master system.'"""
        system = make()
        p = system.submit(2, [IncrementOp(0, -25)])
        system.run()
        assert p.value.state.value == "committed"
        assert system.nodes[0].store.value(0) == 75
        assert system.divergence() == 0


def dark_work(system, work):
    """Each mobile in ``work`` goes dark and commits its tentative
    transactions, ``(ops, criterion)`` pairs, one after the other."""
    for mobile_id, txns in work.items():
        system.disconnect_mobile(mobile_id)
        for ops, criterion in txns:
            system.mobile(mobile_id).submit_tentative(ops, criterion)
            system.run()


#: two mobiles whose base transactions take accounts 0 and 1 in opposite
#: orders: reconnected together they deadlock at the base
CROSSING = {
    1: [([IncrementOp(0, -1), IncrementOp(1, -1)], AlwaysAccept())],
    2: [([IncrementOp(1, -1), IncrementOp(0, -1)], AlwaysAccept())],
}


def records(system):
    return [r for mobile in system.mobiles.values() for r in mobile.log]


def count_runs(system):
    """Wrap ``_run`` on the instance; returns the list its calls land in."""
    calls, real_run = [], system._run

    def counted(origin, ops, label, record=None):
        calls.append(record)
        return real_run(origin, ops, label, record)

    system._run = counted
    return calls


class TestBaseReexecutionIsAUserTransaction:
    """Base re-execution runs through the one driver: what holds for any
    strategy's transactions (retry knobs, abort accounting, crash undo)
    holds for a replayed record, and every way a record can be settled
    sends the mobile its notice."""

    def test_every_replayed_record_passes_the_pipeline_driver(self):
        system = make(num_base=1, num_mobile=2, action_time=0.01)
        runs = count_runs(system)
        dark_work(system, {
            **CROSSING,
            2: CROSSING[2] + [([IncrementOp(2, -150)], NonNegativeOutputs())],
        })
        system.reconnect_mobile(1)
        system.reconnect_mobile(2)
        system.run()
        # a base attempt is a begin at the host, which masters everything
        # here and so begins nothing else (no slave refresh lands on it)
        assert len(runs) == system.nodes[0].tm.begun == 3 + system.metrics.restarts
        assert system.metrics.restarts >= 1
        assert {r.seq for r in runs} == {r.seq for r in records(system)}

    def test_deadlocked_base_attempt_is_an_abort_like_any_other(self):
        from repro.sim.tracing import Tracer

        tracer = Tracer()
        system = make(num_base=1, num_mobile=2, action_time=0.01, tracer=tracer)
        dark_work(system, CROSSING)
        system.reconnect_mobile(1)
        system.reconnect_mobile(2)
        system.run()
        # the paper's default: "resubmitted and reprocessed until it succeeds"
        assert [r.status for r in records(system)] == [TentativeStatus.ACCEPTED] * 2
        assert system.metrics.deadlocks == 1
        assert system.metrics.restarts == system.metrics.aborts == 1
        [abort] = [e for e in tracer.events() if e.category == "abort"]
        assert abort.detail["reason"] == "deadlock"
        assert system.nodes[0].store.value(0) == 98
        assert system.base_divergence() == 0

    @pytest.mark.parametrize("knobs", [
        {"retry_deadlocks": False}, {"max_retries": 0},
    ])
    def test_spent_resubmission_rejects_the_victim_and_notifies_it(self, knobs):
        """One meaning per knob: with retries off, or run out (the
        livelock guard), the deadlock victim is not resubmitted — its
        record is rejected, and the mobile is told."""
        system = make(num_base=1, num_mobile=2, action_time=0.01, **knobs)
        dark_work(system, CROSSING)
        system.reconnect_mobile(1)
        system.reconnect_mobile(2)
        system.run()
        assert system.metrics.restarts == 0
        assert system.metrics.aborts == system.metrics.deadlocks == 1
        [victim] = [r for r in records(system)
                    if r.status is TentativeStatus.REJECTED]
        assert victim.diagnostic == "base transaction aborted: deadlock"
        assert system.mobile(victim.mobile_id).notices == [
            (victim.seq, TentativeStatus.REJECTED, victim.diagnostic)
        ]
        assert system.metrics.tentative_accepted == 1
        assert system.metrics.tentative_rejected == 1
        # the survivor's debits are the only ones applied
        assert system.nodes[0].store.value(0) == 99
        assert system.nodes[0].store.value(1) == 99
        for node in system.base_nodes():
            node.tm.assert_quiescent()

    def test_host_crash_before_and_during_reexecution_is_rejected_and_noticed_once(self):
        for crash_at in ("before", "during"):
            system = make(num_base=1, num_mobile=1, action_time=0.01)
            mobile = system.mobile(1)
            dark_work(system, {
                1: [([IncrementOp(0, -1), IncrementOp(1, -1)], AlwaysAccept())],
            })
            if crash_at == "before":
                system.crash_node(0)
                system.reconnect_mobile(1)
            else:
                system.reconnect_mobile(1)
                system.run(until=system.engine.now + 0.015)  # one write in
                system.crash_node(0)
            system.run()
            [record] = mobile.log
            assert record.status is TentativeStatus.REJECTED, crash_at
            assert record.diagnostic.startswith("base transaction aborted")
            # the notice leaves from the host, so it waits for the host
            assert mobile.notices == []
            assert system.network.parked_outbound(0) == 1
            system.recover_node(0)
            system.run()
            assert mobile.notices == [
                (record.seq, TentativeStatus.REJECTED, record.diagnostic)
            ], crash_at
            assert system.metrics.tentative_rejected == 1
            assert system.metrics.commits == 0
            assert system.nodes[0].store.value(0) == 100
            system.nodes[0].tm.assert_quiescent()

    def test_every_settled_record_is_noticed_exactly_once(self):
        """Accept, acceptance reject, cascade, crash, livelock: however a
        record is settled, one notice carrying its verdict reaches the
        mobile that ran it."""
        # accept, reject, and the cascade behind the reject
        system = make(num_base=1, num_mobile=1, cascade_rejections=True)
        dark_work(system, {1: [
            ([IncrementOp(3, -5)], AlwaysAccept()),
            ([IncrementOp(0, -150)], NonNegativeOutputs()),
            ([IncrementOp(0, -10)], AlwaysAccept()),
        ]})
        system.reconnect_mobile(1)
        system.run()
        assert [r.status.value for r in records(system)] == [
            "accepted", "rejected", "rejected"
        ]
        settled = [system]
        # livelock: the victim of a base deadlock with no resubmission left
        system = make(num_base=1, num_mobile=2, action_time=0.01, max_retries=0)
        dark_work(system, CROSSING)
        system.reconnect_mobile(1)
        system.reconnect_mobile(2)
        system.run()
        settled.append(system)
        # crash: the host goes down under the replay, then comes back
        system = make(num_base=1, num_mobile=1, action_time=0.01)
        dark_work(system, {1: CROSSING[1]})
        system.reconnect_mobile(1)
        system.run(until=system.engine.now + 0.015)
        system.crash_node(0)
        system.run()
        system.recover_node(0)
        system.run()
        settled.append(system)
        for system in settled:
            for mobile in system.mobiles.values():
                assert mobile.notices == [
                    (r.seq, r.status, r.diagnostic) for r in mobile.log
                ]
                assert not mobile.pending_transactions
            assert system.network.parked_total() == 0
            assert (
                system.metrics.tentative_accepted
                + system.metrics.tentative_rejected
                == len(records(system))
            )


@pytest.mark.parametrize("nodes", [2, 4, 8])
def test_strict_acceptance_adjudicates_every_tentative_transaction(nodes):
    """Section 7's mobile workload under the strict identical-outputs test:
    every tentative transaction committed at a mobile is accepted or
    rejected by the base, none lost and none judged twice."""
    from repro.analytic import ModelParameters
    from repro.harness import ExperimentConfig, run_experiment

    params = ModelParameters(db_size=100, nodes=nodes, tps=2, actions=2,
                             action_time=0.001, disconnect_time=4.0)
    m = run_experiment(ExperimentConfig(
        strategy="two-tier", params=params, duration=60.0, seed=1,
    )).metrics
    assert m.tentative_rejected > 0
    assert m.tentative_accepted + m.tentative_rejected == m.tentative_committed
