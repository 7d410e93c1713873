"""A replica's record exists only once it is written.

A read of an object never written at a node answers from
``initial_value`` and allocates nothing, so a run's materialised
``(node, oid)`` pairs are exactly the replicas of what it wrote — and a
lock-free execute that computes before it reads must still see a
replica update that lands during the compute.
"""

import random

from repro.placement import Placement
from repro.replication import DeferredUpdateSystem, SystemSpec
from repro.storage.versioning import ZERO
from repro.txn.ops import IncrementOp, ReadOp, WriteOp

DB = 60
INITIAL = 7


def _sharded(seed=1):
    return DeferredUpdateSystem(SystemSpec(
        num_nodes=8, db_size=DB, action_time=0.01, message_delay=0.002,
        seed=seed, initial_value=INITIAL,
        placement=Placement.from_spec("hash:k=3"),
    ))


def _materialised(system):
    return {
        (node.node_id, oid)
        for node in system.nodes for oid in node.store.materialized_oids()
    }


def test_a_read_only_run_materialises_nothing():
    system = _sharded()
    rng = random.Random(3)
    procs = [
        system.submit(rng.randrange(8), [ReadOp(rng.randrange(DB))
                                         for _ in range(3)])
        for _ in range(40)
    ]
    system.run()
    assert system.materialized_counts() == [0] * 8
    for proc in procs:
        txn = proc.value
        assert txn.state.value == "committed"
        assert txn.reads == [INITIAL] * 3
    # every holder still answers initial_value at the genesis timestamp
    for oid in range(DB):
        for node_id in system.placement.replicas(oid):
            store = system.nodes[node_id].store
            record = store.read(oid)
            assert (record.value, record.ts) == (INITIAL, ZERO)
            assert store.timestamp(oid) == ZERO
    assert system.materialized_counts() == [0] * 8


def test_materialised_pairs_are_the_replicas_of_the_written_oids():
    system = _sharded(seed=5)
    rng = random.Random(11)
    submitted = []
    for _ in range(60):
        ops = []
        for _ in range(rng.randint(1, 4)):
            oid, kind = rng.randrange(DB), rng.random()
            if kind < 0.5:
                ops.append(ReadOp(oid))
            elif kind < 0.75:
                ops.append(WriteOp(oid, rng.randrange(100)))
            else:
                ops.append(IncrementOp(oid, 1))
        submitted.append((system.submit(rng.randrange(8), ops), ops))
    system.run()
    written = {
        op.oid
        for proc, ops in submitted if proc.value.state.value == "committed"
        for op in ops if not op.is_read
    }
    read_only = {op.oid for _, ops in submitted for op in ops} - written
    assert written and read_only  # both kinds of object occur
    assert _materialised(system) == {
        (node_id, oid)
        for oid in written for node_id in system.placement.replicas(oid)
    }
    assert system.divergence() == 0


def test_an_optimistic_write_sees_an_apply_landing_during_its_compute():
    """T1 (origin 0) writes object 5; its ``du-apply`` installs at node 1
    at about t = 2.2.  T2 (origin 1) writes object 5 from t = 1.5 and
    computes for one second, so the install lands mid-compute on an
    object node 1 had never written.  Reading the record after the
    compute observes T1's version and certifies; reading it before the
    compute holds a detached record at the genesis version, which T1's
    certified write supersedes, and T2 aborts.  (Checked: with the read
    moved back above ``yield compute`` in ``_execute_optimistic`` this
    test fails with one cert abort.)"""
    system = DeferredUpdateSystem(SystemSpec(
        num_nodes=2, db_size=10, action_time=1.0, message_delay=0.1,
    ))
    first = system.submit(0, [IncrementOp(5, 10)])
    system.run(until=1.5)
    assert system.nodes[1].store.materialized == 0
    second = system.submit(1, [IncrementOp(5, 1)])
    system.run()
    assert first.value.state.value == "committed"
    assert second.value.state.value == "committed"
    assert system.metrics.extra.get("cert_aborts", 0) == 0
    assert [node.store.value(5) for node in system.nodes] == [11, 11]
