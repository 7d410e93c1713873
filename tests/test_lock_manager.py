"""Tests for the strict-2PL lock manager."""

import pytest

from repro.exceptions import DeadlockAbort
from repro.sim import Engine
from repro.storage.deadlock import DeadlockDetector
from repro.storage.lock_manager import LockManager, LockMode


class FakeTxn:
    _next = iter(range(1, 10_000)).__next__

    def __init__(self, label=""):
        self.txn_id = FakeTxn._next()
        self.label = label

    def __repr__(self):
        return f"T{self.txn_id}"


@pytest.fixture()
def lm():
    engine = Engine()
    detector = DeadlockDetector()
    manager = LockManager(engine, node_id=0, detector=detector)
    manager._engine = engine  # keep engine alive for callers
    return manager


class TestModes:
    def test_shared_compatible_with_shared(self):
        assert LockMode.SHARED.compatible_with(LockMode.SHARED)

    def test_exclusive_conflicts_with_everything(self):
        assert not LockMode.EXCLUSIVE.compatible_with(LockMode.SHARED)
        assert not LockMode.EXCLUSIVE.compatible_with(LockMode.EXCLUSIVE)
        assert not LockMode.SHARED.compatible_with(LockMode.EXCLUSIVE)

    def test_covers(self):
        assert LockMode.EXCLUSIVE.covers(LockMode.SHARED)
        assert LockMode.EXCLUSIVE.covers(LockMode.EXCLUSIVE)
        assert LockMode.SHARED.covers(LockMode.SHARED)
        assert not LockMode.SHARED.covers(LockMode.EXCLUSIVE)


class TestGrant:
    def test_free_lock_granted_immediately(self, lm):
        t = FakeTxn()
        assert lm.acquire(t, 1, LockMode.EXCLUSIVE) is None
        assert lm.holders(1) == {t: LockMode.EXCLUSIVE}

    def test_reentrant_acquire_is_free(self, lm):
        t = FakeTxn()
        assert lm.acquire(t, 1, LockMode.EXCLUSIVE) is None
        assert lm.acquire(t, 1, LockMode.EXCLUSIVE) is None
        assert lm.acquire(t, 1, LockMode.SHARED) is None  # X covers S

    def test_two_shared_holders(self, lm):
        a, b = FakeTxn(), FakeTxn()
        assert lm.acquire(a, 1, LockMode.SHARED) is None
        assert lm.acquire(b, 1, LockMode.SHARED) is None
        assert set(lm.holders(1)) == {a, b}

    def test_exclusive_blocks_second(self, lm):
        a, b = FakeTxn(), FakeTxn()
        assert lm.acquire(a, 1, LockMode.EXCLUSIVE) is None
        event = lm.acquire(b, 1, LockMode.EXCLUSIVE)
        assert event is not None
        assert event.pending
        assert lm.queue_length(1) == 1

    def test_shared_blocks_behind_exclusive(self, lm):
        a, b = FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.EXCLUSIVE)
        assert lm.acquire(b, 1, LockMode.SHARED) is not None

    def test_no_barging_past_queued_exclusive(self, lm):
        a, b, c = FakeTxn(), FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.SHARED)
        assert lm.acquire(b, 1, LockMode.EXCLUSIVE) is not None  # queued
        # c's shared request is compatible with the holder but must not barge
        # past b's queued exclusive
        assert lm.acquire(c, 1, LockMode.SHARED) is not None


class TestRelease:
    def test_release_grants_next_in_fifo_order(self, lm):
        a, b, c = FakeTxn(), FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.EXCLUSIVE)
        eb = lm.acquire(b, 1, LockMode.EXCLUSIVE)
        ec = lm.acquire(c, 1, LockMode.EXCLUSIVE)
        lm.release_all(a)
        assert eb.settled and not ec.settled
        assert lm.holders(1) == {b: LockMode.EXCLUSIVE}
        lm.release_all(b)
        assert ec.settled
        assert lm.holders(1) == {c: LockMode.EXCLUSIVE}

    def test_release_grants_multiple_compatible_readers(self, lm):
        w, r1, r2 = FakeTxn(), FakeTxn(), FakeTxn()
        lm.acquire(w, 1, LockMode.EXCLUSIVE)
        e1 = lm.acquire(r1, 1, LockMode.SHARED)
        e2 = lm.acquire(r2, 1, LockMode.SHARED)
        lm.release_all(w)
        assert e1.settled and e2.settled
        assert set(lm.holders(1)) == {r1, r2}

    def test_release_all_covers_every_object(self, lm):
        t = FakeTxn()
        for oid in range(5):
            lm.acquire(t, oid, LockMode.EXCLUSIVE)
        assert lm.locks_held(t) == set(range(5))
        lm.release_all(t)
        assert lm.locks_held(t) == set()
        for oid in range(5):
            assert lm.holders(oid) == {}

    def test_release_drops_queued_requests_of_txn(self, lm):
        a, b = FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.EXCLUSIVE)
        lm.acquire(b, 1, LockMode.EXCLUSIVE)
        assert lm.queue_length(1) == 1
        lm.release_all(b)  # b gives up while queued
        assert lm.queue_length(1) == 0
        lm.release_all(a)
        assert lm.holders(1) == {}

    def test_release_without_holdings_is_safe(self, lm):
        lm.release_all(FakeTxn())  # must not raise

    def test_is_free_means_neither_held_nor_queued(self, lm):
        a, b = FakeTxn(), FakeTxn()
        assert lm.is_free(1)
        lm.acquire(a, 1, LockMode.SHARED)
        assert not lm.is_free(1) and lm.is_free(2)
        lm.acquire(b, 1, LockMode.EXCLUSIVE)  # queues behind a
        lm.release_all(a)  # b is promoted: still not free
        assert not lm.is_free(1)
        lm.release_all(b)
        assert lm.is_free(1)  # the empty entry was reaped
        lm.acquire(a, 1, LockMode.EXCLUSIVE)
        waiting = lm.acquire(b, 1, LockMode.EXCLUSIVE)
        lm.release_all(b)  # a waiter that gives up leaves the holder
        assert waiting.settled and not lm.is_free(1)
        lm.release_all(a)
        assert lm.is_free(1)


class TestUpgrade:
    def test_sole_shared_holder_upgrades_immediately(self, lm):
        t = FakeTxn()
        lm.acquire(t, 1, LockMode.SHARED)
        assert lm.acquire(t, 1, LockMode.EXCLUSIVE) is None
        assert lm.holders(1) == {t: LockMode.EXCLUSIVE}

    def test_upgrade_waits_for_other_reader(self, lm):
        a, b = FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.SHARED)
        lm.acquire(b, 1, LockMode.SHARED)
        event = lm.acquire(a, 1, LockMode.EXCLUSIVE)
        assert event is not None
        lm.release_all(b)
        assert event.settled
        assert lm.holders(1) == {a: LockMode.EXCLUSIVE}

    def test_upgrade_jumps_ahead_of_ordinary_waiters(self, lm):
        a, b, c = FakeTxn(), FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.SHARED)
        lm.acquire(b, 1, LockMode.SHARED)
        ec = lm.acquire(c, 1, LockMode.EXCLUSIVE)  # ordinary waiter
        ea = lm.acquire(a, 1, LockMode.EXCLUSIVE)  # upgrade
        lm.release_all(b)
        assert ea.settled  # upgrade granted first
        assert not ec.settled


class TestHooks:
    def test_on_wait_fires_per_blocked_request(self):
        engine = Engine()
        waits = []
        lm = LockManager(engine, 0, DeadlockDetector(), on_wait=waits.append)
        a, b, c = FakeTxn(), FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.EXCLUSIVE)
        lm.acquire(b, 1, LockMode.EXCLUSIVE)
        lm.acquire(c, 1, LockMode.EXCLUSIVE)
        assert waits == [b, c]

    def test_granted_requests_do_not_count_as_waits(self):
        engine = Engine()
        waits = []
        lm = LockManager(engine, 0, DeadlockDetector(), on_wait=waits.append)
        lm.acquire(FakeTxn(), 1, LockMode.EXCLUSIVE)
        assert waits == []


class TestUsageContract:
    def test_second_request_while_queued_rejected(self, lm):
        from repro.exceptions import LockError

        a, b = FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.EXCLUSIVE)
        assert lm.acquire(b, 1, LockMode.EXCLUSIVE) is not None  # queued
        with pytest.raises(LockError):
            lm.acquire(b, 1, LockMode.SHARED)  # second outstanding request

    def test_fresh_request_after_grant_is_fine(self, lm):
        a, b = FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.EXCLUSIVE)
        event = lm.acquire(b, 1, LockMode.EXCLUSIVE)
        lm.release_all(a)
        assert event.settled
        # b now holds the lock; a re-entrant acquire is legal again
        assert lm.acquire(b, 1, LockMode.SHARED) is None


class TestVictimAbort:
    def test_cancel_request_fails_event_and_promotes(self, lm):
        a, b, c = FakeTxn(), FakeTxn(), FakeTxn()
        lm.acquire(a, 1, LockMode.EXCLUSIVE)
        eb = lm.acquire(b, 1, LockMode.EXCLUSIVE)
        ec = lm.acquire(c, 1, LockMode.EXCLUSIVE)
        # the victim path: the detector cancels b's queued request
        lm.detector.abort_waiting_txn(b, DeadlockAbort())
        assert isinstance(eb.exception, DeadlockAbort)
        assert lm.queue_length(1) == 1 and lm.holders(1) == {a: LockMode.EXCLUSIVE}
        lm.release_all(a)
        assert ec.settled  # c got the lock, skipping cancelled b


def test_every_queued_writer_is_granted_as_the_holders_release():
    """500 rounds of one exclusive holder and four queued writers on one
    object: releasing the five in order grants each waiter, 2 000 grants."""

    class Txn:
        __slots__ = ("txn_id",)

        def __init__(self, txn_id):
            self.txn_id = txn_id

    lm = LockManager(Engine(), 0, DeadlockDetector())
    granted = 0
    for round_number in range(500):
        txns = [Txn(round_number * 10 + i) for i in range(5)]
        assert lm.acquire(txns[0], 1, LockMode.EXCLUSIVE) is None
        events = [lm.acquire(waiter, 1, LockMode.EXCLUSIVE)
                  for waiter in txns[1:]]
        for txn in txns:
            lm.release_all(txn)
        granted += sum(1 for event in events if event.settled)
    assert granted == 2_000
