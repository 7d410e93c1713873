"""Tests for the Transaction record and lifecycle."""

import pytest

from repro.exceptions import InvalidStateError
from repro.storage.versioning import ZERO, stamp
from repro.txn.ops import WriteOp
from repro.txn.transaction import Transaction, TxnState, UpdateRecord


def make_update(oid, new_value=1):
    return UpdateRecord(
        oid=oid,
        op=WriteOp(oid, new_value),
        old_value=0,
        old_ts=ZERO,
        new_value=new_value,
        new_ts=stamp(1, 0),
    )


def test_ids_monotonically_increase():
    a = Transaction(origin_node=0, start_time=0.0)
    b = Transaction(origin_node=0, start_time=0.0)
    assert b.txn_id > a.txn_id


def test_initial_state_active():
    txn = Transaction(origin_node=1, start_time=2.5)
    assert txn.active
    assert txn.state is TxnState.ACTIVE
    assert txn.start_time == 2.5
    assert txn.origin_node == 1


def test_commit_transition():
    txn = Transaction(origin_node=0, start_time=1.0)
    txn.mark_committed(3.0)
    assert txn.state is TxnState.COMMITTED
    assert txn.end_time == 3.0
    assert txn.duration == 2.0


def test_abort_records_reason():
    txn = Transaction(origin_node=0, start_time=0.0)
    txn.mark_aborted(1.0, reason="deadlock")
    assert txn.state is TxnState.ABORTED
    assert txn.abort_reason == "deadlock"


def test_double_commit_rejected():
    txn = Transaction(origin_node=0, start_time=0.0)
    txn.mark_committed(1.0)
    with pytest.raises(InvalidStateError):
        txn.mark_committed(2.0)


def test_commit_after_abort_rejected():
    txn = Transaction(origin_node=0, start_time=0.0)
    txn.mark_aborted(1.0)
    with pytest.raises(InvalidStateError):
        txn.mark_committed(2.0)


def test_require_active_raises_when_done():
    txn = Transaction(origin_node=0, start_time=0.0)
    txn.require_active()  # fine
    txn.mark_committed(1.0)
    with pytest.raises(InvalidStateError):
        txn.require_active()


def test_duration_none_while_active():
    assert Transaction(origin_node=0, start_time=0.0).duration is None


def test_write_set_deduplicates_preserving_order():
    txn = Transaction(origin_node=0, start_time=0.0)
    for oid in [3, 1, 3, 2, 1]:
        txn.record_update(make_update(oid))
    assert txn.write_set == [3, 1, 2]


def test_reads_recorded_in_order():
    txn = Transaction(origin_node=0, start_time=0.0)
    txn.record_read("a")
    txn.record_read("b")
    assert txn.reads == ["a", "b"]
