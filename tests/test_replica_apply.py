"""The shared replica-apply loop: one retry/drop policy for every stream.

Five message kinds carry shipped updates (quorum catch-up, lazy-group
replica updates, lazy-master and SCAR slave refreshes, deferred-update's
certified write-sets); all of them restart transparently on deadlock, up
to ``max_retries``, and count what they abandon.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DeadlockAbort
from repro.network.message import Message
from repro.replication import (
    DeferredUpdateSystem,
    EagerGroupSystem,
    LazyGroupSystem,
    LazyMasterSystem,
    ReplicaUpdate,
    ScarSystem,
    SystemSpec,
)
from repro.replication.reconciliation import (
    AdditiveDifference,
    CustomRule,
    DiscardIncoming,
    EarliestTimestampWins,
    LatestTimestampWins,
    ManualReconciliation,
    MaximumWins,
    MergeCommutative,
    MinimumWins,
    OverwriteIncoming,
    SitePriorityWins,
    ValuePriorityWins,
)
from repro.sim.events import EventState
from repro.storage.lock_manager import LockMode
from repro.storage.versioning import Timestamp
from repro.txn.ops import IncrementOp, WriteOp
from repro.txn.transaction import Transaction

APPLY_KINDS = {
    "catchup": EagerGroupSystem,
    "replica-update": LazyGroupSystem,
    "slave-update": LazyMasterSystem,
    "du-apply": DeferredUpdateSystem,
    "scar-update": ScarSystem,
}
MAX_RETRIES = 3


def deliver_under_deadlock(kind, attempt, monkeypatch):
    """Hand one ``kind`` message to node 1 whose lock manager makes every
    acquirer the deadlock victim; returns (system, payload, re-sends)."""
    system = APPLY_KINDS[kind](
        SystemSpec(num_nodes=3, db_size=6, max_retries=MAX_RETRIES)
    )
    node = system.nodes[1]

    def victim(txn, oid, mode):
        raise DeadlockAbort()

    sent = []
    monkeypatch.setattr(node.locks, "acquire", victim)
    monkeypatch.setattr(
        system.network, "send", lambda *args: sent.append(args)
    )
    # object 0 is mastered at node 0, so node 1 holds a slave copy
    update = ReplicaUpdate(
        oid=0, old_ts=Timestamp.ZERO, new_ts=Timestamp(5, 0), new_value=9
    )
    payload = ([update], attempt)
    handler = system.handle_message(node, Message(0, 1, kind, payload))
    assert list(handler) == []  # the abort path never waits
    return system, payload, sent


@pytest.mark.parametrize("kind", sorted(APPLY_KINDS))
def test_deadlocked_apply_restarts_with_the_next_attempt(kind, monkeypatch):
    system, (updates, attempt), sent = deliver_under_deadlock(
        kind, MAX_RETRIES - 1, monkeypatch
    )
    assert sent == [(1, 1, kind, (updates, attempt + 1))]
    assert system.metrics.restarts == 1
    assert system.replica_updates_dropped == 0
    assert system.metrics.replica_updates == 0


@pytest.mark.parametrize("kind", sorted(APPLY_KINDS))
def test_apply_out_of_retries_is_dropped_and_counted(kind, monkeypatch):
    system, _payload, sent = deliver_under_deadlock(
        kind, MAX_RETRIES, monkeypatch
    )
    assert sent == []
    assert system.metrics.restarts == 0
    assert system.replica_updates_dropped == 1


# ---------------------------------------------------------------------- #
# the two ways of getting exclusive access install the same thing
# ---------------------------------------------------------------------- #
#
# A message whose body cannot wait (``action_time == 0``, every shipped
# object free) is applied inside the delivering dispatch; any other goes
# through a housekeeping transaction under X locks.  Both must leave the
# node in the same state.

DB_SIZE = 6
RECEIVER = 1
RULES = [
    LatestTimestampWins,
    lambda: SitePriorityWins({0: 2, 2: 1}),
    ValuePriorityWins,
    MergeCommutative,
    EarliestTimestampWins,
    AdditiveDifference,
    MinimumWins,
    MaximumWins,
    DiscardIncoming,
    OverwriteIncoming,
    ManualReconciliation,
]
#: (message kind, system factory) per judge configuration
JUDGES = [("slave-update", LazyMasterSystem)] + [
    ("replica-update", functools.partial(
        LazyGroupSystem, rule=rule(), propagate_ops=propagate_ops
    ))
    for rule in RULES
    for propagate_ops in (False, True)
]


def spec(action_time=0.0, record_history=True):
    return SystemSpec(
        num_nodes=3, db_size=DB_SIZE, action_time=action_time,
        record_history=record_history,
    )


def deliver(system, kind, local, updates, held_oid=None):
    """Send ``updates`` to the receiver through the network, optionally
    under a test-held X lock on ``held_oid`` that is released once the
    engine has run dry.  Returns the handler processes spawned."""
    node = system.nodes[RECEIVER]
    for oid, (value, ts) in local.items():
        node.store.write(oid, value, ts)
    spawned = []
    spawn = system.engine._spawn

    def recording_spawn(generator, name=""):
        process = spawn(generator, name)
        spawned.append(process)
        return process

    system.engine._spawn = recording_spawn
    holder = Transaction(origin_node=RECEIVER, start_time=0.0)
    if held_oid is not None:
        assert node.locks.acquire(holder, held_oid, LockMode.EXCLUSIVE) is None
    system.network.send(0, RECEIVER, kind, (updates, 0))
    system.run()
    node.locks.release_all(holder)
    system.run()
    return spawned


def receiver_state(system):
    node = system.nodes[RECEIVER]
    node.wal.assert_quiescent()
    assert all(node.locks.is_free(oid) for oid in range(DB_SIZE))
    metrics = system.metrics
    return {
        "records": [
            (node.store.value(oid), node.store.timestamp(oid))
            for oid in range(DB_SIZE)
        ],
        "clock": node.clock.current_counter,
        "metrics": (metrics.actions, metrics.replica_updates,
                    metrics.stale_updates, metrics.reconciliations),
        "tm": (node.tm.begun, node.tm.committed, node.tm.aborted),
        "history": [
            (access.node_id, access.txn_id, access.oid, access.kind)
            for access in system.history.events
        ],
    }


timestamps = st.builds(
    Timestamp, st.integers(1, 6), st.sampled_from([0, 2])
)


@st.composite
def shipped_messages(draw):
    local = draw(st.dictionaries(
        st.integers(0, DB_SIZE - 1),
        st.tuples(st.integers(-5, 5), timestamps),
    ))
    updates = []
    for index in range(draw(st.integers(1, 4))):
        oid = draw(st.integers(0, DB_SIZE - 1))
        seen = local.get(oid, (0, Timestamp.ZERO))[1]
        value = draw(st.integers(-5, 5))
        updates.append(ReplicaUpdate(
            oid=oid,
            # the version the root saw: this replica's (safe) or another
            old_ts=draw(
                st.sampled_from([seen, Timestamp.ZERO, Timestamp(3, 2)])
            ),
            new_ts=draw(timestamps),  # older, equal or newer than local
            new_value=value,
            op=draw(st.sampled_from(
                [None, IncrementOp(oid, value), WriteOp(oid, value)]
            )),
            root_txn_id=1000 + index,
        ))
    held = draw(st.sampled_from(updates)).oid
    return local, updates, held


@settings(max_examples=150, deadline=None)
@given(judge=st.sampled_from(JUDGES), message=shipped_messages())
def test_on_the_spot_and_under_lock_install_the_same_thing(judge, message):
    kind, make_system = judge
    local, updates, held_oid = message
    on_the_spot, under_lock = make_system(spec()), make_system(spec())
    assert deliver(on_the_spot, kind, local, updates) == []
    [handler] = deliver(under_lock, kind, local, updates, held_oid)
    assert handler.state is EventState.SUCCEEDED
    assert receiver_state(on_the_spot) == receiver_state(under_lock)


def one_update(oid=0, counter=5, value=9, root_txn_id=77):
    return ReplicaUpdate(
        oid=oid, old_ts=Timestamp.ZERO, new_ts=Timestamp(counter, 0),
        new_value=value, root_txn_id=root_txn_id,
    )


def ship(system, update):
    system.network.send(0, RECEIVER, "slave-update", ([update], 0))


def test_an_action_that_takes_time_runs_as_a_handler_process():
    """Pins the DES event order: with ``action_time > 0`` nothing is ever
    applied inside the delivering dispatch."""
    system = LazyMasterSystem(spec(action_time=0.01))
    [handler] = deliver(system, "slave-update", {}, [one_update()])
    assert handler.name == "handler-slave-update"
    assert system.engine.now == 0.01  # the install cost its action
    assert system.nodes[RECEIVER].store.value(0) == 9


def test_refresh_of_a_locked_object_queues_fifo_behind_earlier_waiters():
    system = LazyMasterSystem(spec())
    node = system.nodes[RECEIVER]
    holder = Transaction(origin_node=RECEIVER, start_time=0.0)
    assert node.locks.acquire(holder, 0, LockMode.EXCLUSIVE) is None
    # the newer version is sent first and must still be installed first:
    # the older one, arriving behind it, is then stale
    ship(system, one_update(counter=7, value=70))
    ship(system, one_update(counter=5, value=50))
    system.run()
    assert node.locks.queue_length(0) == 2
    assert node.store.value(0) == 0  # nothing applied under the lock
    # an unrelated object is still refreshed on the spot meanwhile
    ship(system, one_update(oid=2))
    system.run()
    assert node.store.value(2) == 9
    node.locks.release_all(holder)
    system.run()
    assert node.store.value(0) == 70
    assert node.store.timestamp(0) == Timestamp(7, 0)
    assert system.metrics.stale_updates == 1
    assert system.metrics.replica_updates == 3
    assert node.locks.is_free(0)


def test_refresh_for_a_crashed_node_still_parks():
    system = LazyMasterSystem(spec())
    system.crash_node(RECEIVER)
    ship(system, one_update())
    system.run()
    node = system.nodes[RECEIVER]
    assert node.store.value(0) == 0
    assert system.network.parked_inbound(RECEIVER) == 1
    system.recover_node(RECEIVER)
    system.run()
    assert node.store.value(0) == 9


def test_update_without_a_root_id_needs_a_transaction_under_history():
    """The recorded write is attributed to the root transaction; with no
    root id it falls to the housekeeping transaction, so there must be one."""
    system = LazyMasterSystem(spec())
    [handler] = deliver(
        system, "slave-update", {}, [one_update(root_txn_id=-1)]
    )
    assert handler.state is EventState.SUCCEEDED
    [write] = system.history.events
    assert (write.node_id, write.oid, write.kind) == (RECEIVER, 0, "w")
    # without a history there is nothing to attribute: applied on the spot
    unrecorded = LazyMasterSystem(spec(record_history=False))
    assert deliver(
        unrecorded, "slave-update", {}, [one_update(root_txn_id=-1)]
    ) == []
    assert unrecorded.nodes[RECEIVER].store.value(0) == 9


def test_exception_on_the_spot_is_a_failed_handler_process():
    """What a raising judge does to a housekeeping transaction it does to
    the on-the-spot refresh: the handler process fails with the exception
    and the engine runs on — it does not escape the delivering dispatch."""
    def broken_rule(local, update):
        raise RuntimeError("rule fell over")

    system = LazyGroupSystem(spec(), rule=CustomRule(broken_rule))
    conflicting = one_update()._replace(old_ts=Timestamp(3, 2))
    [handler] = deliver(
        system, "replica-update", {}, [one_update(oid=1), conflicting]
    )
    assert handler.state is EventState.FAILED
    assert isinstance(handler.exception, RuntimeError)
    node = system.nodes[RECEIVER]
    assert node.store.value(1) == 9  # earlier writes stay, as under a txn
    assert (node.tm.begun, system.metrics.replica_updates) == (0, 0)
    assert deliver(system, "replica-update", {}, [one_update(oid=2)]) == []
    assert node.store.value(2) == 9
