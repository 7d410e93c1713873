"""Tests for the reconciliation rule library."""

from repro.replication.base import ReplicaUpdate
from repro.replication.reconciliation import (
    CustomRule,
    LatestTimestampWins,
    ManualReconciliation,
    MergeCommutative,
    Outcome,
    SitePriorityWins,
    ValuePriorityWins,
    default_rule,
)
from repro.storage.record import Record
from repro.storage.versioning import Timestamp
from repro.txn.ops import IncrementOp, WriteOp
from repro.replication import SystemSpec


def local(value=10, ts=Timestamp(5, 0)):
    return Record(oid=0, value=value, ts=ts)


def update(new_value=20, new_ts=Timestamp(6, 1), old_ts=Timestamp(1, 1), op=None):
    return ReplicaUpdate(oid=0, old_ts=old_ts, new_ts=new_ts,
                         new_value=new_value, op=op, root_txn_id=1)


class TestLatestTimestampWins:
    def test_newer_update_applies(self):
        rule = LatestTimestampWins()
        assert rule.resolve(local(ts=Timestamp(5, 0)),
                            update(new_ts=Timestamp(6, 1))) is Outcome.APPLY

    def test_older_update_discarded(self):
        rule = LatestTimestampWins()
        assert rule.resolve(local(ts=Timestamp(9, 0)),
                            update(new_ts=Timestamp(6, 1))) is Outcome.DISCARD

    def test_is_the_default_rule(self):
        assert isinstance(default_rule(), LatestTimestampWins)


class TestSitePriority:
    def test_high_priority_site_wins(self):
        rule = SitePriorityWins({0: 10, 1: 1})
        # local version written by node 0 (priority 10) beats newer node-1 update
        assert rule.resolve(local(ts=Timestamp(5, 0)),
                            update(new_ts=Timestamp(99, 1))) is Outcome.DISCARD

    def test_low_priority_local_loses(self):
        rule = SitePriorityWins({0: 1, 1: 10})
        assert rule.resolve(local(ts=Timestamp(5, 0)),
                            update(new_ts=Timestamp(2, 1))) is Outcome.APPLY

    def test_equal_priority_falls_back_to_timestamp(self):
        rule = SitePriorityWins({})
        assert rule.resolve(local(ts=Timestamp(5, 0)),
                            update(new_ts=Timestamp(6, 1))) is Outcome.APPLY
        assert rule.resolve(local(ts=Timestamp(7, 0)),
                            update(new_ts=Timestamp(6, 1))) is Outcome.DISCARD


class TestValuePriority:
    def test_larger_value_wins(self):
        rule = ValuePriorityWins()
        assert rule.resolve(local(value=10), update(new_value=20)) is Outcome.APPLY
        assert rule.resolve(local(value=30), update(new_value=20)) is Outcome.DISCARD

    def test_custom_key(self):
        rule = ValuePriorityWins(key=lambda v: -v)  # smaller wins
        assert rule.resolve(local(value=10), update(new_value=5)) is Outcome.APPLY

    def test_incomparable_values_fall_back_to_time(self):
        rule = ValuePriorityWins()
        assert rule.resolve(
            local(value="abc", ts=Timestamp(5, 0)),
            update(new_value=7, new_ts=Timestamp(6, 1)),
        ) is Outcome.APPLY


class TestMergeCommutative:
    def test_commutative_op_merges(self):
        rule = MergeCommutative()
        assert rule.resolve(
            local(), update(op=IncrementOp(0, 5))
        ) is Outcome.MERGE

    def test_non_commutative_falls_back_to_time(self):
        rule = MergeCommutative()
        assert rule.resolve(
            local(ts=Timestamp(5, 0)),
            update(new_ts=Timestamp(6, 1), op=WriteOp(0, 9)),
        ) is Outcome.APPLY

    def test_missing_op_falls_back(self):
        rule = MergeCommutative()
        assert rule.resolve(
            local(ts=Timestamp(9, 0)), update(new_ts=Timestamp(6, 1))
        ) is Outcome.DISCARD


class TestEarliestTimestampWins:
    def test_older_local_kept(self):
        from repro.replication.reconciliation import EarliestTimestampWins

        rule = EarliestTimestampWins()
        assert rule.resolve(local(ts=Timestamp(2, 0)),
                            update(new_ts=Timestamp(6, 1))) is Outcome.DISCARD

    def test_older_incoming_applied(self):
        from repro.replication.reconciliation import EarliestTimestampWins

        rule = EarliestTimestampWins()
        assert rule.resolve(local(ts=Timestamp(9, 0)),
                            update(new_ts=Timestamp(6, 1))) is Outcome.APPLY

    def test_unwritten_local_always_yields(self):
        from repro.replication.reconciliation import EarliestTimestampWins

        rule = EarliestTimestampWins()
        assert rule.resolve(local(ts=Timestamp.ZERO),
                            update(new_ts=Timestamp(6, 1))) is Outcome.APPLY


class TestValueRules:
    def test_minimum_wins(self):
        from repro.replication.reconciliation import MinimumWins

        rule = MinimumWins()
        assert rule.resolve(local(value=10), update(new_value=5)) is Outcome.APPLY
        assert rule.resolve(local(value=3), update(new_value=5)) is Outcome.DISCARD

    def test_minimum_incomparable_falls_back_to_time(self):
        from repro.replication.reconciliation import MinimumWins

        rule = MinimumWins()
        assert rule.resolve(
            local(value="x", ts=Timestamp(1, 0)),
            update(new_value=5, new_ts=Timestamp(2, 1)),
        ) is Outcome.APPLY

    def test_maximum_wins_alias(self):
        from repro.replication.reconciliation import MaximumWins

        rule = MaximumWins()
        assert rule.name == "maximum-wins"
        assert rule.resolve(local(value=3), update(new_value=5)) is Outcome.APPLY


class TestFixedSideRules:
    def test_discard_incoming(self):
        from repro.replication.reconciliation import DiscardIncoming

        assert DiscardIncoming().resolve(local(), update()) is Outcome.DISCARD

    def test_overwrite_incoming(self):
        from repro.replication.reconciliation import OverwriteIncoming

        assert OverwriteIncoming().resolve(local(), update()) is Outcome.APPLY


class TestAdditiveDifference:
    def test_merges_increment_ops(self):
        from repro.replication.reconciliation import AdditiveDifference

        rule = AdditiveDifference()
        assert rule.resolve(
            local(), update(op=IncrementOp(0, 5))
        ) is Outcome.MERGE

    def test_system_level_merge_preserves_both_deltas(self):
        from repro.replication.lazy_group import LazyGroupSystem
        from repro.replication.reconciliation import AdditiveDifference

        system = LazyGroupSystem(
            SystemSpec(num_nodes=2, db_size=3, action_time=0.001,
                       message_delay=1.0),
            rule=AdditiveDifference(),
        )
        system.submit(0, [IncrementOp(0, 100)])
        system.submit(1, [IncrementOp(0, 10)])
        system.run()
        assert system.converged()
        assert system.nodes[0].store.value(0) == 110

    def test_merge_with_missing_op_falls_back_to_install(self):
        """A MERGE verdict on an update that carries no operation must not
        crash; the value is installed instead."""
        from repro.replication.base import ReplicaUpdate
        from repro.replication.lazy_group import LazyGroupSystem
        from repro.replication.reconciliation import AdditiveDifference
        from repro.storage.versioning import Timestamp as TS

        system = LazyGroupSystem(
            SystemSpec(num_nodes=2, db_size=3, action_time=0.001),
            rule=AdditiveDifference(),
        )
        system.submit(1, [IncrementOp(0, 1)])
        system.run()
        stale = ReplicaUpdate(oid=0, old_ts=TS(99, 0), new_ts=TS(100, 0),
                              new_value=77, op=None, root_txn_id=1)
        system.network.send(0, 1, "replica-update", ([stale], 0))
        system.run()
        assert system.nodes[1].store.value(0) == 77


class TestManualAndCustom:
    def test_manual_always_defers(self):
        rule = ManualReconciliation()
        assert rule.resolve(local(), update()) is Outcome.DEFER

    def test_custom_rule_runs_callable(self):
        rule = CustomRule(lambda rec, upd: Outcome.APPLY, name="mine")
        assert rule.resolve(local(), update()) is Outcome.APPLY
        assert rule.name == "mine"
