"""Tests for eager-master replication."""

import pytest

from repro.replication.eager_master import EagerMasterSystem
from repro.txn.ops import IncrementOp, WriteOp
from repro.replication import SystemSpec


def make(num_nodes=3, db_size=12, **kw):
    kw.setdefault("action_time", 0.01)
    return EagerMasterSystem(
        SystemSpec(num_nodes=num_nodes, db_size=db_size, **kw))


class TestOwnership:
    def test_master_of(self):
        system = make()
        assert system.master_of(4).node_id == 4 % 3


class TestExecution:
    def test_update_reaches_all_replicas(self):
        system = make()
        system.submit(0, [WriteOp(5, 42)])
        system.run()
        for node in system.nodes:
            assert node.store.value(5) == 42

    def test_master_lock_taken_first(self):
        """All writers of an object serialize at its master: with
        single-object transactions there can be no deadlock."""
        system = make(num_nodes=3, db_size=3)
        for origin in range(3):
            for oid in range(3):
                system.submit(origin, [IncrementOp(oid, 1)])
        system.run()
        assert system.metrics.deadlocks == 0
        assert system.metrics.commits == 9
        for oid in range(3):
            assert system.nodes[0].store.value(oid) == 3
        assert system.converged()

    def test_multi_object_transactions_can_still_deadlock(self):
        system = make(num_nodes=2, db_size=2)
        # objects 0 and 1 have masters 0 and 1: opposite orders can cycle
        system.submit(0, [WriteOp(0, 1), WriteOp(1, 1)])
        system.submit(1, [WriteOp(1, 2), WriteOp(0, 2)])
        system.run()
        # whatever happened, state must be consistent and work accounted
        assert system.metrics.commits + system.metrics.aborts == 2
        assert system.converged()

    def test_any_disconnect_blocks_updates(self):
        system = make()
        system.network.disconnect(1)
        p = system.submit(0, [WriteOp(0, 5)])
        system.run()
        assert p.value.state.value == "aborted"
        assert p.value.abort_reason == "master-unreachable"

    def test_commutative_load_preserves_all_updates(self):
        system = make(num_nodes=3, db_size=6, retry_deadlocks=True)
        for origin in range(3):
            for _ in range(4):
                system.submit(origin, [IncrementOp(1, 1), IncrementOp(4, 1)])
        system.run()
        assert system.nodes[0].store.value(1) == 12
        assert system.nodes[0].store.value(4) == 12
        assert system.converged()
