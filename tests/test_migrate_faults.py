"""Live migration under faults and under lock.

``ReplicatedSystem.migrate`` is a housekeeping transaction that X-locks
the source copy and moves the record through the normal network path, so
it composes with every fault the injector can throw: crashed endpoints
are rejected up front, and a partitioned transfer parks in the
store-and-forward queue until the cut heals.  A migration issued while a
writer holds the copy waits for it and ships its outcome, a crash at the
source during the wait moves nothing, and a transaction queued behind
the move aborts with reason ``"migrated"``.
"""

import pytest

from repro.exceptions import ConfigurationError, DeadlockAbort, InvalidStateError
from repro.faults.oracle import evaluate
from repro.harness.experiment import STRATEGY_CLASSES
from repro.placement import Placement
from repro.replication import EagerGroupSystem, LazyGroupSystem, SystemSpec
from repro.storage.lock_manager import LockMode
from repro.txn.ops import IncrementOp, WriteOp
from repro.txn.transaction import TxnState


def _dir_system(cls=LazyGroupSystem, **overrides):
    kwargs = dict(
        num_nodes=6,
        db_size=60,
        action_time=0.001,
        message_delay=0.002,
        seed=3,
        placement=Placement.from_spec("dir:k=2"),
    )
    kwargs.update(overrides)
    return cls(SystemSpec(**kwargs))


def _move_target(system, oid):
    """(src, dst): a non-master replica and a node holding no copy."""
    placement = system.placement
    src = placement.replicas(oid)[1]
    dst = next(
        n for n in range(system.num_nodes)
        if not placement.is_replica(oid, n)
    )
    return src, dst


def test_migrate_rejects_a_crashed_source():
    system = _dir_system()
    oid = 5
    src, dst = _move_target(system, oid)
    system.crash_node(src)
    with pytest.raises(InvalidStateError):
        system.migrate(oid, src, dst)
    # nothing moved: the directory still routes to the old replica set
    assert system.placement.replicas(oid)[1] == src
    assert system.placement.moved == 0


def test_migrate_rejects_a_crashed_destination():
    system = _dir_system()
    oid = 5
    src, dst = _move_target(system, oid)
    system.crash_node(dst)
    with pytest.raises(InvalidStateError):
        system.migrate(oid, src, dst)
    assert system.placement.moved == 0
    # after recovery the same move goes through cleanly
    system.recover_node(dst)
    system.migrate(oid, src, dst)
    system.run()
    assert oid not in system.nodes[src].store
    assert system.divergence() == 0


def test_every_bad_move_raises_at_the_call_and_starts_nothing():
    system = _dir_system()
    oid = 5
    src, dst = _move_target(system, oid)
    master = system.placement.master(oid)
    beyond = system.num_nodes
    for bad in [
        (oid, dst, src),  # dst holds no copy to move
        (oid, src, master),  # master already holds one
        (oid, src, beyond),
        (oid, beyond, dst),
        (system.db_size, src, dst),
    ]:
        with pytest.raises(ConfigurationError):
            system.migrate(*bad)
    assert system.engine.peek() is None
    assert system.placement.moved == 0


@pytest.mark.parametrize("second", ["same source", "same destination"])
def test_of_two_moves_of_one_object_issued_at_once_the_second_aborts(second):
    """Both are valid at the call; the second finds the directory changed
    once it holds its lock and moves nothing."""
    system = _dir_system()
    oid = 9
    src, dst = _move_target(system, oid)
    master = system.placement.master(oid)
    first = system.migrate(oid, src, dst)
    if second == "same source":
        other_dst = next(
            n for n in range(system.num_nodes)
            if n != dst and not system.placement.is_replica(oid, n)
        )
        later = system.migrate(oid, src, other_dst)
    else:
        later = system.migrate(oid, master, dst)
    system.run()
    assert first.value.state is TxnState.COMMITTED
    assert later.value.abort_reason == "migrated"
    assert system.placement.replicas(oid) == (master, dst)
    assert system.divergence() == 0
    _assert_quiescent(system)


def test_partitioned_transfer_parks_until_the_cut_heals():
    system = _dir_system()
    oid = 7
    master = system.placement.master(oid)
    src, dst = _move_target(system, oid)
    system.submit(master, [WriteOp(oid, 777)])
    system.run()
    system.network.set_reachable(src, dst, False)
    system.migrate(oid, src, dst)
    system.run()
    # the transfer is parked on the cut; the directory already rebound,
    # but the record has not landed yet
    assert system.network.parked_total() > 0
    assert oid not in system.nodes[src].store
    assert oid not in system.nodes[dst].store._records
    system.network.set_reachable(src, dst, True)
    system.run()
    assert system.nodes[dst].store.peek(oid) == 777
    assert system.divergence() == 0


def _others_at(system, node, oid, count):
    """``count`` objects besides ``oid`` that ``node`` holds."""
    return [
        o for o in range(system.db_size)
        if o != oid and system.placement.is_replica(o, node)
    ][:count]


def _migrate_under_a_writer(system, oid, src, dst):
    """Start a writer at ``src`` that writes 111 to ``oid`` and then
    sleeps through two more writes, holding ``oid``'s X lock; migrate
    while it holds the lock.  Returns ``(writer, move)``."""
    others = _others_at(system, src, oid, 2)
    writer = system.submit(
        src, [WriteOp(oid, 111)] + [WriteOp(o, 222) for o in others]
    )
    system.run(until=0.0015)  # 111 written at t=0.001, not committed
    move = system.migrate(oid, src, dst)
    system.run(until=0.0016)
    # the move waits for the lock like any writer: nothing has moved yet
    assert src in system.placement.replicas(oid)
    assert system.nodes[src].locks.queue_length(oid) == 1
    assert system.placement.moved == 0
    return writer, move


def _assert_quiescent(system):
    for node in system.nodes:
        node.tm.assert_quiescent()


@pytest.mark.parametrize("outcome", ["commit", "abort"])
def test_a_migration_waits_for_the_writer_and_ships_its_outcome(outcome):
    """The move ships what the writer leaves committed: its value if it
    commits, the value before it if it aborts — never a write in flight."""
    system = _dir_system()
    oid = 9
    src, dst = _move_target(system, oid)
    before = system.nodes[src].store.peek(oid)
    writer, move = _migrate_under_a_writer(system, oid, src, dst)
    if outcome == "abort":
        writer.interrupt(DeadlockAbort())
    system.run()
    assert writer.value.state is (
        TxnState.COMMITTED if outcome == "commit" else TxnState.ABORTED
    )
    assert move.value.state is TxnState.COMMITTED
    assert system.nodes[dst].store.peek(oid) == (
        111 if outcome == "commit" else before
    )
    assert oid not in system.nodes[src].store
    assert system.divergence() == 0
    assert system.metrics.as_dict()["migrations"] == 1
    _assert_quiescent(system)


@pytest.mark.parametrize("parked", [True, False], ids=["waiting", "runnable"])
def test_a_crash_at_the_source_during_the_wait_moves_nothing(parked):
    """Parked on the lock, the move is interrupted like any live
    transaction at ``src``; not yet run, it finds ``src`` down."""
    system = _dir_system()
    oid = 9
    src, dst = _move_target(system, oid)
    replicas = system.placement.replicas(oid)
    before = system.nodes[src].store.peek(oid)
    if parked:
        _, move = _migrate_under_a_writer(system, oid, src, dst)
    else:
        move = system.migrate(oid, src, dst)
    system.crash_node(src)
    system.run()
    assert move.value.state is TxnState.ABORTED
    assert move.value.abort_reason == "crash"
    # the directory, both stores and the counter are as they were
    assert system.placement.replicas(oid) == replicas
    assert system.placement.moved == 0
    assert system.nodes[src].store.peek(oid) == before
    assert oid not in system.nodes[dst].store
    assert "migrations" not in system.metrics.as_dict()
    # after recovery the same move goes through
    system.recover_node(src)
    system.quiesce()
    again = system.migrate(oid, src, dst)
    system.run()
    assert again.value.state is TxnState.COMMITTED
    assert system.nodes[dst].store.peek(oid) == before
    assert oid not in system.nodes[src].store
    assert system.divergence() == 0
    assert system.metrics.as_dict()["migrations"] == 1
    _assert_quiescent(system)


def test_a_crash_at_the_source_interrupts_the_waiting_move_at_once():
    """The move is a live process at ``src``: a crash there aborts it at
    once, even while the lock it waits for belongs to an eager writer
    rooted elsewhere, which the crash does not interrupt."""
    system = _dir_system(cls=EagerGroupSystem)
    oid = 9
    src, dst = _move_target(system, oid)
    master = system.placement.master(oid)
    # rooted at the master: writes there, then holds src's copy 0.001-0.002
    system.submit(master, [WriteOp(oid, 111)])
    system.run(until=0.0015)
    move = system.migrate(oid, src, dst)
    system.run(until=0.0016)
    assert system.nodes[src].locks.queue_length(oid) == 1
    system.crash_node(src)
    system.run()
    assert move.value.abort_reason == "crash"
    assert move.value.end_time == 0.0016
    assert system.placement.moved == 0


def test_a_transaction_queued_behind_the_migration_aborts_as_migrated():
    """A writer queued on the copy behind the move loses it: the move fails
    its request, the abort path undoes its earlier write and releases its
    locks, and no deadlock is counted."""
    system = _dir_system()
    oid = 9
    src, dst = _move_target(system, oid)
    mine = _others_at(system, src, oid, 3)[2]  # the writer has the first two
    mine_before = system.nodes[src].store.peek(mine)
    writer, move = _migrate_under_a_writer(system, oid, src, dst)
    # writes ``mine`` at t=0.0026, then queues on ``oid`` behind the move
    late = system.submit(src, [WriteOp(mine, 5), WriteOp(oid, 333)])
    system.run(until=0.0027)
    assert system.nodes[src].locks.queue_length(oid) == 2
    system.run()
    txn = late.value
    assert txn.state is TxnState.ABORTED
    assert txn.abort_reason == "migrated"
    # failed at the instant the move commits, not after a wasted action
    assert txn.end_time == move.value.end_time
    assert system.metrics.deadlocks == 0
    for node in system.nodes:
        assert node.locks.locks_held(txn) == set()
        assert node.wal.entries_for(txn.txn_id) == []
    assert system.nodes[src].store.peek(mine) == mine_before
    assert writer.value.state is TxnState.COMMITTED
    assert move.value.state is TxnState.COMMITTED
    assert system.nodes[dst].store.peek(oid) == 111
    assert system.divergence() == 0
    _assert_quiescent(system)


@pytest.mark.parametrize("strategy", sorted(set(STRATEGY_CLASSES) - {"two-tier"}))
def test_the_new_copy_is_unusable_until_the_record_lands(strategy):
    """The transfer window: once the directory is rebound, a write that
    reaches the new holder before the ``record-transfer`` waits on the
    move's lock there instead of reading the initial value, so the
    increment lands on 50 at both replicas."""
    system = _dir_system(cls=STRATEGY_CLASSES[strategy], db_size=20,
                         message_delay=0.01, seed=0)
    oid = 9
    master, src = system.placement.replicas(oid)
    dst = next(n for n in range(system.num_nodes)
               if not system.placement.is_replica(oid, n))
    system.submit(master, [WriteOp(oid, 50)])
    system.run()
    move = system.migrate(oid, src, dst)
    increment = system.submit(master, [IncrementOp(oid, 1)])
    system.run()
    assert move.value.state is TxnState.COMMITTED
    assert increment.value.state is TxnState.COMMITTED
    assert system.placement.replicas(oid) == (master, dst)
    assert system.nodes[master].store.peek(oid) == 51
    assert system.nodes[dst].store.peek(oid) == 51
    verdict = evaluate(system)
    assert verdict.ok, verdict.describe()
    _assert_quiescent(system)


def test_a_move_to_a_copy_still_locked_there_moves_nothing():
    """A transaction can still hold the lock an earlier move left behind
    at the destination; rebinding under it would let it read the initial
    value, so the move aborts as ``"migrated"`` instead."""
    system = _dir_system()
    oid = 9
    src, dst = _move_target(system, oid)
    replicas = system.placement.replicas(oid)
    stale = system.nodes[dst].tm.begin(label="stale")
    assert system.nodes[dst].locks.acquire(stale, oid, LockMode.EXCLUSIVE) is None
    move = system.migrate(oid, src, dst)
    system.run()
    assert move.value.abort_reason == "migrated"
    assert system.placement.replicas(oid) == replicas
    assert system.placement.moved == 0
