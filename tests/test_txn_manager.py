"""Tests for the per-node TransactionManager."""

import pytest

from repro.exceptions import DeadlockAbort, InvalidStateError
from repro.sim import Engine
from repro.storage.deadlock import DeadlockDetector
from repro.storage.lock_manager import LockManager, LockMode
from repro.storage.store import ObjectStore
from repro.storage.versioning import TimestampGenerator, stamp
from repro.storage.wal import WriteAheadLog
from repro.txn.manager import TransactionManager
from repro.txn.ops import IncrementOp, ReadOp, WriteOp


def make_tm(engine=None, action_time=0.0, lock_reads=False, db_size=10,
            node_id=0, detector=None):
    engine = engine or Engine()
    detector = detector or DeadlockDetector()
    store = ObjectStore(node_id, db_size)
    locks = LockManager(engine, node_id, detector)
    wal = WriteAheadLog()
    clock = TimestampGenerator(node_id)
    tm = TransactionManager(engine, node_id, store, locks, wal, clock,
                            action_time=action_time, lock_reads=lock_reads)
    return tm, engine


def run_txn(tm, engine, ops, commit=True):
    def proc():
        txn = tm.begin()
        try:
            for op in ops:
                yield from tm.execute(txn, op)
            if commit:
                tm.commit(txn)
            else:
                tm.abort(txn, "test")
        except DeadlockAbort:
            tm.abort(txn, "deadlock")
        return txn

    p = engine.process(proc())
    engine.run()
    return p.value


def test_write_updates_store_and_wal():
    tm, engine = make_tm()
    txn = run_txn(tm, engine, [WriteOp(3, 42)])
    assert tm.store.value(3) == 42
    assert txn.state.value == "committed"
    assert len(txn.updates) == 1
    assert txn.updates[0].old_value == 0
    assert txn.updates[0].new_value == 42
    tm.assert_quiescent()


def test_write_advances_timestamp():
    tm, engine = make_tm()
    run_txn(tm, engine, [WriteOp(3, 1)])
    first = tm.store.timestamp(3)
    run_txn(tm, engine, [WriteOp(3, 2)])
    assert tm.store.timestamp(3) > first


def test_increment_is_state_dependent():
    tm, engine = make_tm()
    run_txn(tm, engine, [IncrementOp(0, 5)])
    run_txn(tm, engine, [IncrementOp(0, 7)])
    assert tm.store.value(0) == 12


def test_read_records_value():
    tm, engine = make_tm()
    run_txn(tm, engine, [WriteOp(1, 8)])
    txn = run_txn(tm, engine, [ReadOp(1)])
    assert txn.reads == [8]


def test_read_takes_no_lock_by_default():
    tm, engine = make_tm()

    def writer():
        txn = tm.begin()
        yield from tm.execute(txn, WriteOp(1, 5))
        yield engine.timeout(10.0)  # hold the X lock
        tm.commit(txn)

    def reader():
        txn = tm.begin()
        yield engine.timeout(1.0)
        yield from tm.execute(txn, ReadOp(1))
        tm.commit(txn)
        return engine.now

    engine.process(writer())
    p = engine.process(reader())
    engine.run()
    assert p.value == 1.0  # did not wait for the writer


def test_lock_reads_blocks_behind_writer():
    tm, engine = make_tm(lock_reads=True)

    def writer():
        txn = tm.begin()
        yield from tm.execute(txn, WriteOp(1, 5))
        yield engine.timeout(10.0)
        tm.commit(txn)

    def reader():
        txn = tm.begin()
        yield engine.timeout(1.0)
        yield from tm.execute(txn, ReadOp(1))
        tm.commit(txn)
        return engine.now

    engine.process(writer())
    p = engine.process(reader())
    engine.run()
    assert p.value == 10.0  # waited for commit


def test_action_time_consumed_per_update():
    tm, engine = make_tm(action_time=0.5)
    run_txn(tm, engine, [WriteOp(0, 1), WriteOp(1, 2), WriteOp(2, 3)])
    assert engine.now == pytest.approx(1.5)


def test_abort_undoes_writes():
    tm, engine = make_tm()
    txn = run_txn(tm, engine, [WriteOp(0, 7), WriteOp(1, 8)], commit=False)
    assert txn.state.value == "aborted"
    assert tm.store.value(0) == 0
    assert tm.store.value(1) == 0
    tm.assert_quiescent()


def test_abort_restores_timestamps():
    tm, engine = make_tm()
    run_txn(tm, engine, [WriteOp(0, 1)])
    ts_after_commit = tm.store.timestamp(0)
    run_txn(tm, engine, [WriteOp(0, 2)], commit=False)
    assert tm.store.timestamp(0) == ts_after_commit


def test_conflicting_writers_serialize():
    tm, engine = make_tm(action_time=0.1)
    order = []

    def writer(name, delta):
        txn = tm.begin()
        yield from tm.execute(txn, IncrementOp(0, delta))
        order.append((name, engine.now))
        tm.commit(txn)

    engine.process(writer("a", 1))
    engine.process(writer("b", 10))
    engine.run()
    assert tm.store.value(0) == 11
    assert order[0][0] == "a"


def test_deadlock_victim_gets_exception_and_rolls_back():
    tm, engine = make_tm(action_time=0.01)
    outcomes = []

    def proc(oids):
        txn = tm.begin()
        try:
            for oid in oids:
                yield from tm.execute(txn, WriteOp(oid, txn.txn_id))
            tm.commit(txn)
            outcomes.append("commit")
        except DeadlockAbort:
            tm.abort(txn, "deadlock")
            outcomes.append("deadlock")

    engine.process(proc([0, 1]))
    engine.process(proc([1, 0]))
    engine.run()
    assert sorted(outcomes) == ["commit", "deadlock"]
    tm.assert_quiescent()
    # the survivor's writes are in place on both objects
    assert tm.store.value(0) == tm.store.value(1)


def test_execute_on_finished_txn_rejected():
    tm, engine = make_tm()
    txn = tm.begin()
    txn.mark_committed(0.0)

    def proc():
        yield from tm.execute(txn, WriteOp(0, 1))

    p = engine.process(proc())
    engine.run()
    assert isinstance(p.exception, InvalidStateError)


def test_execute_install_sets_foreign_timestamp():
    tm, engine = make_tm()
    foreign_ts = stamp(100, 9)

    def proc():
        txn = tm.begin()
        yield from tm.execute_install(txn, 2, 77, foreign_ts)
        tm.commit(txn)

    engine.process(proc())
    engine.run()
    assert tm.store.value(2) == 77
    assert tm.store.timestamp(2) == foreign_ts
    # the local clock witnessed the foreign stamp
    assert tm.clock.tick() > foreign_ts


def test_execute_transform_applies_op_and_max_timestamp():
    tm, engine = make_tm()
    run_txn(tm, engine, [WriteOp(2, 10)])
    local_ts = tm.store.timestamp(2)
    older_foreign = stamp(0, 5)

    txn = tm.begin()
    tm.transform(txn, IncrementOp(2, 5), older_foreign, None)
    tm.commit(txn)
    assert tm.store.value(2) == 15
    assert tm.store.timestamp(2) == max(local_ts, older_foreign)


def test_counters():
    tm, engine = make_tm()
    run_txn(tm, engine, [WriteOp(0, 1)])
    run_txn(tm, engine, [WriteOp(1, 1)], commit=False)
    assert tm.begun == 2
    assert tm.committed == 1
    assert tm.aborted == 1
