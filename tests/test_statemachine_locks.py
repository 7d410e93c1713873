"""Stateful (rule-based) hypothesis testing of the lock manager.

Hypothesis drives random sequences of acquire/release operations against
the lock manager and checks structural invariants after every step,
through its public introspection only (``holders``, ``queue_length``,
``is_free``, ``total_queued``, ``locks_held``, ``holding_transactions``).
The machine keeps its own model of each wait queue — FIFO, upgrades to
the head, a request leaves when its event settles — and checks:

* granted holders of one object are pairwise compatible;
* the manager queues exactly the model's pending requests (no settled
  request lingers, none is lost);
* no queued request is compatible with the holders *and* unblocked by
  earlier waiters (no lost wakeups);
* a transaction granted a lock is not simultaneously queued for it,
  except to upgrade S -> X;
* a granted request leaves its transaction holding the lock;
* releasing everything leaves the table empty.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.sim import Engine
from repro.storage.deadlock import DeadlockDetector
from repro.storage.lock_manager import LockManager, LockMode

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


class FakeTxn:
    counter = 0

    def __init__(self):
        FakeTxn.counter += 1
        self.txn_id = FakeTxn.counter

    def __repr__(self):
        return f"T{self.txn_id}"


class LockMachine(RuleBasedStateMachine):
    OIDS = [0, 1, 2]

    def __init__(self):
        super().__init__()
        self.engine = Engine()
        self.detector = DeadlockDetector()
        self.lm = LockManager(self.engine, 0, self.detector)
        self.live: list = []
        #: oid -> the model's queue: [txn, mode, upgrade, event] in order
        self.queues = {oid: [] for oid in self.OIDS}

    transactions = Bundle("transactions")

    @rule(target=transactions)
    def new_txn(self):
        txn = FakeTxn()
        self.live.append(txn)
        return txn

    @rule(txn=transactions, oid=st.sampled_from(OIDS),
          mode=st.sampled_from([S, X]))
    def acquire(self, txn, oid, mode):
        if txn not in self.live:
            return
        queue = self.queues[oid]
        if any(request[0] is txn for request in queue):
            # usage contract: one outstanding request per (txn, oid); the
            # manager raises LockError on violations (tested separately)
            return
        upgrade = self.lm.holders(oid).get(txn) is S and mode is X
        event = self.lm.acquire(txn, oid, mode)
        if event is not None:
            request = [txn, mode, upgrade, event]
            if upgrade:
                queue.insert(0, request)
            else:
                queue.append(request)
        self._settle()

    @rule(txn=transactions)
    def release_all(self, txn):
        if txn not in self.live:
            return
        self.lm.release_all(txn)
        self.live.remove(txn)
        self._settle()

    def _settle(self):
        """Drop settled requests from the model; a granted one must have
        left its transaction holding the lock."""
        for oid, queue in self.queues.items():
            for request in [r for r in queue if not r[3].pending]:
                queue.remove(request)
                txn, mode, _upgrade, event = request
                if event.exception is None:
                    held = self.lm.holders(oid).get(txn)
                    assert held is not None and held.covers(mode), (
                        f"oid {oid}: {txn} woken for {mode} but holds {held}"
                    )

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def holders_pairwise_compatible(self):
        for oid in self.OIDS:
            modes = list(self.lm.holders(oid).values())
            if X in modes:
                assert len(modes) == 1, (
                    f"oid {oid}: X holder coexists with others: {modes}"
                )

    @invariant()
    def manager_queues_what_the_model_queues(self):
        for oid, queue in self.queues.items():
            assert self.lm.queue_length(oid) == len(queue), (
                f"oid {oid}: manager queues {self.lm.queue_length(oid)}, "
                f"model {len(queue)}"
            )
            assert self.lm.is_free(oid) == (
                not queue and not self.lm.holders(oid)
            )
        assert self.lm.total_queued() == sum(map(len, self.queues.values()))

    @invariant()
    def no_holder_also_queued(self):
        for oid, queue in self.queues.items():
            holders = self.lm.holders(oid)
            for txn, mode, upgrade, _event in queue:
                held = holders.get(txn)
                if held is not None:
                    # only legal when waiting to upgrade S -> X
                    assert upgrade and held is S, (
                        f"oid {oid}: {txn} holds {held} but queues "
                        f"{mode} without upgrade flag"
                    )

    @invariant()
    def no_lost_wakeups(self):
        """Anything grantable right now should have been granted already:
        each queued request conflicts with another holder or, unless it
        is an upgrade, with a request ahead of it."""
        for oid, queue in self.queues.items():
            holders = self.lm.holders(oid)
            for index, (txn, mode, upgrade, _event) in enumerate(queue):
                blocked = any(
                    holder is not txn and not held.compatible_with(mode)
                    for holder, held in holders.items()
                ) or (not upgrade and any(
                    ahead[0] is not txn and not ahead[1].compatible_with(mode)
                    for ahead in queue[:index]
                ))
                assert blocked, (
                    f"oid {oid}: queued request {txn}/{mode} "
                    "is grantable but was not granted"
                )

    @invariant()
    def locks_held_matches_holders(self):
        holding = 0
        for txn in self.live:
            held = {oid for oid in self.OIDS if txn in self.lm.holders(oid)}
            assert self.lm.locks_held(txn) == held
            holding += bool(held)
        assert self.lm.holding_transactions() == holding

    def teardown(self):
        for txn in list(self.live):
            self.lm.release_all(txn)
        for oid in self.OIDS:
            assert self.lm.is_free(oid), f"oid {oid} still held after teardown"
        assert self.lm.total_queued() == 0
        assert self.lm.holding_transactions() == 0


LockMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestLockMachine = LockMachine.TestCase
