"""Tests for lazy-group replication (Figure 4 timestamp protocol)."""

import pytest

from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.reconciliation import (
    ManualReconciliation,
    MergeCommutative,
)
from repro.txn.ops import IncrementOp, WriteOp
from repro.replication import SystemSpec


def make(num_nodes=3, db_size=20, **kw):
    kw.setdefault("action_time", 0.01)
    extras = {k: kw.pop(k) for k in ("rule", "propagate_ops") if k in kw}
    return LazyGroupSystem(
        SystemSpec(num_nodes=num_nodes, db_size=db_size, **kw), **extras)


def test_root_commits_locally_then_propagates():
    system = make()
    p = system.submit(0, [WriteOp(5, 42)])
    system.run()
    assert p.value.state.value == "committed"
    for node in system.nodes:
        assert node.store.value(5) == 42
    # Figure 1: one root + (N-1) replica-update transactions
    assert system.metrics.commits == 1
    assert system.metrics.replica_updates == 2
    assert system.network.messages_sent == 2


def test_lazy_transaction_count_matches_table_1():
    """Table 1: lazy propagation needs N transactions per user update."""
    system = make(num_nodes=5)
    system.submit(0, [WriteOp(0, 1)])
    system.run()
    total_txns = system.metrics.commits + system.metrics.replica_updates
    assert total_txns == 5


def test_sequential_updates_from_one_node_apply_cleanly():
    system = make()
    system.submit(0, [WriteOp(1, 10)])
    system.run()
    system.submit(0, [WriteOp(1, 20)])
    system.run()
    assert system.metrics.reconciliations == 0
    assert all(n.store.value(1) == 20 for n in system.nodes)


def test_racing_writes_detected_as_reconciliation():
    """Two nodes update the same object concurrently; the timestamp check
    (old_ts mismatch) must flag the dangerous replica update."""
    system = make(message_delay=1.0)
    system.submit(0, [WriteOp(3, 111)])
    system.submit(1, [WriteOp(3, 222)])
    system.run()
    assert system.metrics.reconciliations >= 1
    # default rule (latest timestamp wins) still converges
    assert system.converged()


def test_timestamp_scheme_loses_an_update():
    """The checkbook lost-update problem: concurrent increments via value
    shipping lose one delta under timestamp reconciliation."""
    system = make(message_delay=1.0, db_size=5)
    system.submit(0, [IncrementOp(0, 100)])
    system.submit(1, [IncrementOp(0, 10)])
    system.run()
    assert system.converged()
    final = system.nodes[0].store.value(0)
    assert final in (10, 100)  # one update was lost
    assert final != 110


def test_merge_commutative_rule_preserves_both_updates():
    """Section 6's third form: commutative updates merge instead of losing."""
    system = make(message_delay=1.0, db_size=5, rule=MergeCommutative(),
                  propagate_ops=True)
    system.submit(0, [IncrementOp(0, 100)])
    system.submit(1, [IncrementOp(0, 10)])
    system.run()
    assert system.converged()
    assert system.nodes[0].store.value(0) == 110


def test_manual_rule_leaves_system_diverged():
    """DEFER = waiting for a human: replicas disagree — system delusion."""
    system = make(message_delay=1.0, db_size=5, rule=ManualReconciliation())
    system.submit(0, [WriteOp(0, 111)])
    system.submit(1, [WriteOp(0, 222)])
    system.run()
    assert system.metrics.reconciliations >= 1
    assert system.divergence() >= 1


def test_duplicate_delivery_is_idempotent():
    system = make()
    p = system.submit(0, [WriteOp(2, 7)])
    system.run()
    # simulate a duplicate replica-update delivery
    updates = [
        u for u in []
    ]
    from repro.replication.base import ReplicaUpdate

    txn = p.value
    dup = [
        ReplicaUpdate(oid=u.oid, old_ts=u.old_ts, new_ts=u.new_ts,
                      new_value=u.new_value, op=u.op, root_txn_id=txn.txn_id)
        for u in txn.updates
    ]
    system.network.send(0, 1, "replica-update", (dup, 0))
    system.run()
    assert system.nodes[1].store.value(2) == 7
    assert system.metrics.reconciliations == 0


def test_disconnected_node_defers_propagation_both_ways():
    system = make()
    system.network.disconnect(2)
    system.submit(0, [WriteOp(1, 5)])   # inbound for node 2 parks
    system.submit(2, [WriteOp(8, 9)])   # node 2 commits locally, outbound parks
    system.run()
    assert system.nodes[2].store.value(1) == 0
    assert system.nodes[0].store.value(8) == 0
    assert system.nodes[2].store.value(8) == 9  # local commit worked
    system.network.reconnect(2)
    system.run()
    assert system.nodes[2].store.value(1) == 5
    assert system.nodes[0].store.value(8) == 9
    assert system.converged()


def test_overlapping_disconnected_updates_reconcile_on_reconnect():
    """The equation 15-18 mechanism: updates to the same object from two
    disconnected nodes collide at exchange time."""
    system = make()
    system.network.disconnect(1)
    system.network.disconnect(2)
    system.submit(1, [WriteOp(4, 111)])
    system.submit(2, [WriteOp(4, 222)])
    system.run()
    system.network.reconnect(1)
    system.run()
    system.network.reconnect(2)
    system.run()
    assert system.metrics.reconciliations >= 1
    assert system.converged()


def test_aborted_root_does_not_propagate():
    system = make(num_nodes=2, db_size=4)
    # engineer a local deadlock so one root aborts
    system.submit(0, [WriteOp(0, 1), WriteOp(1, 1)])
    system.submit(0, [WriteOp(1, 2), WriteOp(0, 2)])
    system.run()
    sent_batches = system.metrics.commits  # one message per remote node
    assert system.network.messages_sent == sent_batches
    assert system.converged()
