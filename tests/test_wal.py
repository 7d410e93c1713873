"""Tests for the write-ahead (undo) log."""

import pytest

from repro.exceptions import CrashAbort, InvalidStateError
from repro.storage.store import ObjectStore
from repro.storage.versioning import ZERO, stamp
from repro.storage.wal import ACTIVE, CRASHED, RECOVERING, WriteAheadLog


@pytest.fixture()
def store():
    return ObjectStore(node_id=0, db_size=10)


def test_record_and_forget(store):
    wal = WriteAheadLog()
    wal.record(1, 0, 0, ZERO, 5, stamp(1, 0))
    assert wal.pending_transactions() == 1
    assert wal.forget(1) == 1
    assert wal.pending_transactions() == 0


def test_undo_restores_value_and_timestamp(store):
    wal = WriteAheadLog()
    ts = stamp(1, 0)
    wal.record(1, 0, 0, ZERO, 5, ts)
    store.write(0, 5, ts)
    undone = wal.undo(1, store)
    assert undone == 1
    assert store.value(0) == 0
    assert store.timestamp(0) == ZERO


def test_undo_multiple_writes_reverse_order(store):
    wal = WriteAheadLog()
    # txn writes object 0 twice: 0 -> 5 -> 9
    wal.record(1, 0, 0, ZERO, 5, stamp(1, 0))
    store.write(0, 5, stamp(1, 0))
    wal.record(1, 0, 5, stamp(1, 0), 9, stamp(2, 0))
    store.write(0, 9, stamp(2, 0))
    wal.undo(1, store)
    assert store.value(0) == 0  # fully back to the beginning


def test_undo_only_touches_own_txn(store):
    wal = WriteAheadLog()
    wal.record(1, 0, 0, ZERO, 5, stamp(1, 0))
    wal.record(2, 1, 0, ZERO, 7, stamp(2, 0))
    store.write(0, 5, stamp(1, 0))
    store.write(1, 7, stamp(2, 0))
    wal.undo(1, store)
    assert store.value(0) == 0
    assert store.value(1) == 7  # txn 2 untouched
    assert wal.pending_transactions() == 1


def test_undo_unknown_txn_is_noop(store):
    wal = WriteAheadLog()
    assert wal.undo(42, store) == 0


def test_entries_for_preserves_order(store):
    wal = WriteAheadLog()
    wal.record(1, 3, 0, ZERO, 1, stamp(1, 0))
    wal.record(1, 4, 0, ZERO, 2, stamp(2, 0))
    oids = [e.oid for e in wal.entries_for(1)]
    assert oids == [3, 4]


def test_total_entries_counts_all(store):
    wal = WriteAheadLog()
    for i in range(5):
        wal.record(1, i, 0, ZERO, i, stamp(i + 1, 0))
    wal.forget(1)
    assert wal.total_entries == 5  # historical count survives forget


def test_assert_quiescent(store):
    wal = WriteAheadLog()
    wal.assert_quiescent()  # empty: fine
    wal.record(1, 0, 0, ZERO, 5, stamp(1, 0))
    with pytest.raises(InvalidStateError):
        wal.assert_quiescent()
    wal.forget(1)
    wal.assert_quiescent()


# --------------------------------------------------------------------- #
# crash & recovery
# --------------------------------------------------------------------- #


def test_crash_rolls_back_in_flight_transaction(store):
    wal = WriteAheadLog()
    wal.record(1, 0, 0, ZERO, 5, stamp(1, 0))
    store.write(0, 5, stamp(1, 0))
    undone = wal.crash(store)
    assert undone == 1
    assert store.value(0) == 0
    assert store.timestamp(0) == ZERO
    assert wal.pending_transactions() == 0
    assert wal.state == CRASHED


def test_crash_undoes_across_transactions_in_reverse_global_order(store):
    wal = WriteAheadLog()
    # txn 1 then txn 2 both write object 0: 0 -> 5 -> 9; reverse global
    # order must restore 9 -> 5 -> 0, ending at the original image
    wal.record(1, 0, 0, ZERO, 5, stamp(1, 0))
    store.write(0, 5, stamp(1, 0))
    wal.record(2, 0, 5, stamp(1, 0), 9, stamp(2, 1))
    store.write(0, 9, stamp(2, 1))
    assert wal.crash(store) == 2
    assert store.value(0) == 0
    assert store.timestamp(0) == ZERO


def test_record_while_crashed_raises_crash_abort(store):
    wal = WriteAheadLog()
    wal.crash(store)
    with pytest.raises(CrashAbort):
        wal.record(1, 0, 0, ZERO, 5, stamp(1, 0))
    assert wal.pending_transactions() == 0  # the rejected write left no undo


def test_double_crash_rejected(store):
    wal = WriteAheadLog()
    wal.crash(store)
    with pytest.raises(InvalidStateError):
        wal.crash(store)


def test_crash_during_recovery_rejected(store):
    wal = WriteAheadLog()
    wal.crash(store)
    wal.begin_recovery()
    with pytest.raises(InvalidStateError):
        wal.crash(store)


def test_recovery_lifecycle(store):
    wal = WriteAheadLog()
    assert wal.is_active
    wal.crash(store)
    with pytest.raises(InvalidStateError):
        wal.complete_recovery()  # must begin first
    wal.begin_recovery()
    assert wal.state == RECOVERING
    with pytest.raises(InvalidStateError):
        wal.begin_recovery()  # not crashed any more
    wal.complete_recovery()
    assert wal.state == ACTIVE
    # the log accepts writes again
    wal.record(3, 1, 0, ZERO, 2, stamp(3, 0))
    assert wal.pending_transactions() == 1


def test_begin_recovery_requires_crash(store):
    wal = WriteAheadLog()
    with pytest.raises(InvalidStateError):
        wal.begin_recovery()


def test_crash_abort_reason_is_crash():
    exc = CrashAbort("node 2 crashed")
    assert exc.reason == "crash"
