"""Tests for eager-group replication."""

import pytest

from repro.replication.eager_group import EagerGroupSystem
from repro.replication import ReplicaUpdate, SystemSpec
from repro.storage.versioning import Timestamp
from repro.txn.ops import IncrementOp, ReadOp, WriteOp


def make(num_nodes=3, db_size=20, **kw):
    kw.setdefault("action_time", 0.01)
    extras = {k: kw.pop(k) for k in ("quorum", "parallel_updates") if k in kw}
    return EagerGroupSystem(
        SystemSpec(num_nodes=num_nodes, db_size=db_size, **kw), **extras)


def test_update_applied_at_every_replica():
    system = make()
    system.submit(0, [WriteOp(5, 42)])
    system.run()
    for node in system.nodes:
        assert node.store.value(5) == 42
    assert system.metrics.commits == 1
    assert system.metrics.actions == 3  # one action x three replicas


def test_transaction_size_is_actions_times_nodes():
    """Equation 6: the eager transaction does Actions x Nodes work."""
    system = make(num_nodes=4)
    system.submit(0, [WriteOp(1, 1), WriteOp(2, 2)])
    system.run()
    assert system.metrics.actions == 2 * 4


def test_transaction_duration_stretches_with_nodes():
    """Equation 6: duration = Actions x Nodes x Action_Time."""
    slow = make(num_nodes=4, action_time=0.01)
    p = slow.submit(0, [WriteOp(0, 1), WriteOp(1, 1)])
    slow.run()
    txn = p.value
    assert txn.duration == pytest.approx(2 * 4 * 0.01)


def test_reads_run_locally_only():
    system = make()
    p = system.submit(1, [ReadOp(3)])
    system.run()
    assert p.value.reads == [0]
    assert system.metrics.actions == 0


def test_no_reconciliations_ever():
    system = make(db_size=5, num_nodes=3)
    for origin in range(3):
        for _ in range(10):
            system.submit(origin, [IncrementOp(origin % 5, 1), IncrementOp(3, 1)])
    system.run()
    assert system.metrics.reconciliations == 0


def test_deadlock_aborts_roll_back_everywhere():
    system = make(num_nodes=2, db_size=4)
    # force a deadlock: opposite lock orders from the two nodes
    system.submit(0, [WriteOp(0, 100), WriteOp(1, 100)])
    system.submit(1, [WriteOp(1, 200), WriteOp(0, 200)])
    system.run()
    assert system.metrics.deadlocks >= 1
    assert system.metrics.commits + system.metrics.aborts == 2
    # replicas agree on every object despite the abort
    assert system.converged()
    for node in system.nodes:
        node.tm.assert_quiescent()


def test_concurrent_increments_all_survive():
    """Serializability check: with increments, no update may be lost."""
    system = make(num_nodes=3, db_size=10, retry_deadlocks=True)
    for origin in range(3):
        for _ in range(5):
            system.submit(origin, [IncrementOp(7, 1)])
    system.run()
    assert system.nodes[0].store.value(7) == 15
    assert system.converged()


def test_disconnected_node_blocks_updates_without_quorum():
    system = make(num_nodes=3)
    system.network.disconnect(2)
    p = system.submit(0, [WriteOp(1, 9)])
    system.run()
    assert p.value.state.value == "aborted"
    assert system.blocked_by_disconnect == 1
    assert system.nodes[0].store.value(1) == 0


def test_quorum_allows_updates_with_majority():
    system = make(num_nodes=3, quorum=True)
    system.network.disconnect(2)
    p = system.submit(0, [WriteOp(1, 9)])
    system.run()
    assert p.value.state.value == "committed"
    assert system.nodes[0].store.value(1) == 9
    assert system.nodes[1].store.value(1) == 9
    assert system.nodes[2].store.value(1) == 0  # still dark


def test_quorum_catchup_on_rejoin():
    """'When a node joins the quorum, the quorum sends the new node all
    replica updates since the node was disconnected.'"""
    system = make(num_nodes=3, quorum=True)
    system.network.disconnect(2)
    system.submit(0, [WriteOp(1, 9), WriteOp(2, 8)])
    system.run()
    system.network.reconnect(2)
    system.run()
    assert system.nodes[2].store.value(1) == 9
    assert system.nodes[2].store.value(2) == 8
    assert system.converged()


def test_quorum_minority_cannot_update():
    system = make(num_nodes=5, quorum=True)
    for node_id in [2, 3, 4]:
        system.network.disconnect(node_id)
    p = system.submit(0, [WriteOp(0, 1)])
    system.run()
    assert p.value.state.value == "aborted"
    assert system.blocked_by_disconnect == 1


def test_disconnected_originator_cannot_update_even_with_quorum():
    system = make(num_nodes=3, quorum=True)
    system.network.disconnect(0)
    p = system.submit(0, [WriteOp(0, 1)])
    system.run()
    assert p.value.state.value == "aborted"


def test_catchup_is_idempotent_under_duplicate_timestamps():
    system = make(num_nodes=3, quorum=True)
    system.network.disconnect(2)
    system.submit(0, [IncrementOp(1, 5)])
    system.run()
    system.network.reconnect(2)
    system.run()
    assert system.nodes[2].store.value(1) == 5
    # stale catch-up (same ts) must not re-apply
    assert system.metrics.stale_updates == 0
    assert system.converged()


def test_same_catchup_delivered_twice_is_a_duplicate_not_a_stale_update():
    system = make(num_nodes=3, quorum=True)
    update = ReplicaUpdate(
        oid=1, old_ts=Timestamp.ZERO, new_ts=Timestamp(4, 0), new_value=5
    )
    for _delivery in range(2):
        system.network.send(0, 2, "catchup", ([update], 0))
        system.run()
    assert system.metrics.replica_updates == 2
    assert system.metrics.actions == 1  # installed once
    assert system.nodes[2].store.value(1) == 5
    assert system.metrics.stale_updates == 0
