"""The per-update value records and the per-message objects keep their
contract.

``LogEntry``, ``UpdateRecord`` and ``ReplicaUpdate`` are built once or more
per write, so their representation is a performance decision; what the
rest of the code (and these tests) may rely on is only this: immutable,
compared and hashed by value, constructed by keyword or by position in the
declared field order, picklable, and named as they always were.  The hot
construction sites skip the generated ``__new__`` (they call
``tuple.__new__`` directly), so each one is checked to hand out exactly
the record its keyword constructor would.

A Lamport timestamp is one ``int`` made by ``stamp(counter, node_id)``:
ordered as the ``(counter, node)`` pairs are, printed ``"counter@node"``
by ``format_stamp`` alone, and one object shared by every replica of a
write.

``Record``, ``Transaction`` and ``Message`` are the mutable per-object
state of the replica-update stream (one per written replica, per attempt,
per send).  They are slotted — no instance ``__dict__`` — and keep their
equality, ``repr``, copying and pickling; a ``Record`` holds only its
value and its stamp.  Message ids stay a global, monotone send order.
"""

import copy
import pickle

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFaults
from repro.placement import Placement
from repro.network import Network
from repro.network.message import Message, reset_message_ids
from repro.replication import (
    DeferredUpdateSystem,
    LazyGroupSystem,
    ReplicaUpdate,
    SystemSpec,
)
from repro.sim import Engine
from repro.sim.random_source import RandomSource
from repro.storage.record import Record
from repro.storage.versioning import (
    ZERO,
    TimestampGenerator,
    format_stamp,
    node_of,
    stamp,
)
from repro.storage.wal import LogEntry, WriteAheadLog
from repro.txn.ops import IncrementOp, WriteOp
from repro.txn.transaction import Transaction, TxnState, UpdateRecord

OP = IncrementOp(2, 5)
OLD, NEW = stamp(1, 0), stamp(2, 0)

#: (type, required fields in declared order, defaulted fields in order)
RECORDS = [
    (
        LogEntry,
        {"txn_id": 7, "oid": 2, "before_value": 10, "before_ts": OLD,
         "after_value": 15, "after_ts": NEW},
        {"seq": -1},
    ),
    (
        UpdateRecord,
        {"oid": 2, "op": OP, "old_value": 10, "old_ts": OLD,
         "new_value": 15, "new_ts": NEW},
        {},
    ),
    (
        ReplicaUpdate,
        {"oid": 2, "old_ts": OLD, "new_ts": NEW, "new_value": 15, "op": OP,
         "root_txn_id": 7},
        {},
    ),
]


@pytest.mark.parametrize(
    "cls, required, defaults", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_record_is_an_immutable_value(cls, required, defaults):
    record = cls(**required)
    every = {**required, **defaults}
    for name, value in every.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    # keyword, positional and fully spelled-out construction agree
    assert cls(*required.values()) == record
    assert cls(*every.values()) == record
    assert hash(cls(**every)) == hash(record)
    for name in every:
        assert cls(**{**every, name: "other"}) != record
    assert repr(record) == "{}({})".format(
        cls.__name__, ", ".join(f"{k}={v!r}" for k, v in every.items())
    )
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is cls and clone == record


def test_timestamp_order_and_rendering():
    assert type(stamp(2, 1)) is int
    assert stamp(1, 9) < stamp(2, 0) < stamp(2, 1)
    assert max(stamp(2, 1), stamp(2, 0)) == stamp(2, 1)
    assert sorted([stamp(2, 0), stamp(1, 5), ZERO]) == [
        ZERO, stamp(1, 5), stamp(2, 0),
    ]
    assert ZERO == stamp(0, -1) == 0
    assert format_stamp(stamp(3, 1)) == "3@1"


def test_every_replica_of_a_certified_write_shares_one_stamp():
    """The certifier ticks one stamp per write and ships it; each holder
    files that int, not a copy of it."""
    system = DeferredUpdateSystem(SystemSpec(
        num_nodes=6, db_size=12, action_time=0.001, message_delay=0.001,
        placement=Placement.from_spec("hash:k=3"),
    ))
    proc = system.submit(0, [WriteOp(5, 9), WriteOp(7, 4)])
    system.run()
    assert proc.value.state.value == "committed"
    for oid in (5, 7):
        holders = system.placement.replicas(oid)
        stamps = [system.nodes[n].store.read(oid).ts for n in holders]
        assert len(holders) == 3 and type(stamps[0]) is int
        assert all(ts is stamps[0] for ts in stamps)
        assert node_of(stamps[0]) == 0  # the certifier's clock


def test_a_shipped_update_always_names_its_root_transaction():
    """The history attributes every replica write to the root, so there is
    no update without one."""
    with pytest.raises(TypeError, match="root_txn_id"):
        ReplicaUpdate(oid=2, old_ts=OLD, new_ts=NEW, new_value=15, op=None)


def test_the_update_path_hands_out_the_same_field_names():
    system = LazyGroupSystem(SystemSpec(num_nodes=2, db_size=4, action_time=0.0))
    node = system.nodes[0]
    txn = node.tm.begin()
    assert list(node.tm.execute(txn, OP)) == []  # free lock, no action time
    new_ts = stamp(1, 0)

    assert node.wal.entries_for(txn.txn_id) == [
        LogEntry(txn_id=txn.txn_id, oid=2, before_value=0,
                 before_ts=ZERO, after_value=5, after_ts=new_ts,
                 seq=0)
    ]
    assert txn.updates == [
        UpdateRecord(oid=2, op=OP, old_value=0, old_ts=ZERO,
                     new_value=5, new_ts=new_ts)
    ]
    assert system._shipped_updates(txn) == [
        ReplicaUpdate(oid=2, old_ts=ZERO, new_ts=new_ts,
                      new_value=5, op=OP, root_txn_id=txn.txn_id)
    ]


def _tick():
    return TimestampGenerator(3).tick(), stamp(1, 3)


def _wal_record():
    return WriteAheadLog().record(7, 2, 10, OLD, 15, NEW), LogEntry(
        txn_id=7, oid=2, before_value=10, before_ts=OLD, after_value=15,
        after_ts=NEW, seq=0,
    )


def _executed():
    """The transaction manager's update record and the lazy fan-out's
    message body for one executed increment."""
    system = LazyGroupSystem(SystemSpec(num_nodes=2, db_size=4, action_time=0.0))
    node = system.nodes[0]
    txn = node.tm.begin()
    assert list(node.tm.execute(txn, OP)) == []  # free lock, no action time
    return system, txn


def _execute_update():
    _system, txn = _executed()
    return txn.updates[0], UpdateRecord(
        oid=2, op=OP, old_value=0, old_ts=ZERO, new_value=5,
        new_ts=stamp(1, 0),
    )


def _shipped_update():
    system, txn = _executed()
    return system._shipped_updates(txn)[0], ReplicaUpdate(
        oid=2, old_ts=ZERO, new_ts=stamp(1, 0),
        new_value=5, op=OP, root_txn_id=txn.txn_id,
    )


def _certified_update():
    system = DeferredUpdateSystem(SystemSpec(num_nodes=2, db_size=4))
    shipped = []
    system._fan_out = lambda sender, kind, updates: shipped.extend(updates)
    write = WriteOp(3, 9)
    system._certify(system.nodes[0], (1, 42, (), ((3, OLD, 9, write),)))
    return shipped[0], ReplicaUpdate(
        oid=3, old_ts=OLD, new_ts=stamp(1, 0),
        new_value=9, op=write, root_txn_id=42,
    )


SITES = {
    "TimestampGenerator.tick": _tick,
    "WriteAheadLog.record": _wal_record,
    "TransactionManager.execute": _execute_update,
    "ReplicatedSystem._shipped_updates": _shipped_update,
    "DeferredUpdateSystem._certify": _certified_update,
}


@pytest.mark.parametrize("site", SITES)
def test_fast_construction_site_builds_the_declared_record(site):
    built, expected = SITES[site]()
    cls = type(expected)
    assert type(built) is cls
    assert built == expected and hash(built) == hash(expected)
    assert repr(built) == repr(expected)
    names = {
        name: globals()[name]
        for name in ("LogEntry", "UpdateRecord", "ReplicaUpdate",
                     "IncrementOp", "WriteOp")
    }
    assert eval(repr(built), names) == expected
    clone = pickle.loads(pickle.dumps(built))
    assert type(clone) is cls and clone == expected


# --------------------------------------------------------------------- #
# the slotted per-object state: Record, Transaction, Message
# --------------------------------------------------------------------- #


def _transaction():
    txn = Transaction(origin_node=2, start_time=1.5, label="t")
    txn.record_read(4)
    txn.record_update(UpdateRecord(oid=2, op=OP, old_value=10, old_ts=OLD,
                                   new_value=15, new_ts=NEW))
    txn.mark_committed(2.0)
    return txn


def _transaction_state(txn):
    return (txn.txn_id, txn.origin_node, txn.start_time, txn.label,
            txn.state, txn.updates, txn.reads, txn.end_time,
            txn.abort_reason, txn.restarts)


@pytest.mark.parametrize("build", [
    lambda: Record(value=7, ts=NEW),
    _transaction,
    lambda: Message(0, 1, "du-apply", ("payload", 1), 0.5, 1.5),
], ids=["Record", "Transaction", "Message"])
def test_per_object_state_has_no_instance_dict(build):
    obj = build()
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_record_keeps_its_defaults_equality_repr_and_copies():
    record = Record()
    assert Record.__slots__ == ("value", "ts")
    assert (record.value, record.ts) == (0, ZERO)
    assert Record(0) == record == Record(value=0, ts=ZERO)
    assert Record(1) != record
    assert Record(0, NEW) != record
    assert repr(Record(7, NEW)) == f"Record(value=7, ts={format_stamp(NEW)})"
    assert repr(Record(7, NEW)) == "Record(value=7, ts=2@0)"
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is Record and clone == record
        assert clone is not record
    # a copy is a snapshot: writing the original leaves it alone
    snapshot = copy.copy(record)
    record.value, record.ts = 9, NEW
    assert (snapshot.value, snapshot.ts) == (0, ZERO)
    # and a copy carries every slot
    copied = copy.copy(record)
    assert (copied.value, copied.ts) == (9, NEW)


def test_transaction_keeps_identity_equality_repr_and_pickles():
    txn = _transaction()
    assert txn == txn and txn != _transaction()
    assert repr(txn) == (
        f"<Txn {txn.txn_id} 't' node=2 committed updates=1>"
    )
    for clone in (copy.copy(txn), pickle.loads(pickle.dumps(txn))):
        assert type(clone) is Transaction and clone is not txn
        assert _transaction_state(clone) == _transaction_state(txn)
    assert pickle.loads(pickle.dumps(txn)).state is TxnState.COMMITTED


def test_message_keeps_its_fields_equality_repr_and_pickles():
    msg = Message(src=0, dst=1, kind="du-apply", payload=("x", 1),
                  send_time=0.5, deliver_time=1.5, msg_id=41)
    assert (msg.src, msg.dst, msg.kind, msg.payload, msg.send_time,
            msg.deliver_time, msg.msg_id) == (0, 1, "du-apply", ("x", 1),
                                              0.5, 1.5, 41)
    assert msg.latency == 1.0
    assert Message(0, 1, "du-apply", ("x", 1), 0.5, 1.5, 41) == msg
    assert Message(0, 1, "du-apply", ("x", 1), 0.5, 1.5, 42) != msg
    assert Message(0, 2, "du-apply", ("x", 1), 0.5, 1.5, 41) != msg
    assert repr(msg) == "<Message #41 du-apply 0->1 @0.5>"
    defaulted = Message(3, 4, "k", None)
    assert (defaulted.send_time, defaulted.deliver_time) == (0.0, 0.0)
    for clone in (copy.copy(msg), pickle.loads(pickle.dumps(msg))):
        assert type(clone) is Message and clone == msg and clone is not msg


def test_message_ids_are_monotone_and_restart_on_reset():
    reset_message_ids()
    engine = Engine()
    net = Network(engine, 2)
    net.register(1, lambda msg: None)
    ids = [net.send(0, 1, "m", n).msg_id for n in range(3)]
    ids.append(Message(0, 1, "m", None).msg_id)
    assert ids == [1, 2, 3, 4]
    reset_message_ids()
    assert net.send(0, 1, "m", None).msg_id == 1
    assert Message(0, 1, "m", None, msg_id=99).msg_id == 99
    assert Message(0, 1, "m", None).msg_id == 2  # an explicit id draws none


class _StubSystem:
    def __init__(self):
        self.engine = Engine()
        self.network = Network(self.engine, 2)
        self.rng = RandomSource(7)

    def _trace(self, category, **detail):
        pass


def test_a_duplicated_message_gets_a_fresh_id():
    system = _StubSystem()
    FaultInjector(system, FaultPlan(link=LinkFaults(duplicate=1.0))).install()
    inbox = []
    system.network.register(1, inbox.append)
    sent = system.network.send(0, 1, "m", "x")
    system.engine.run()
    original, clone = inbox
    assert original is sent
    assert clone.msg_id > sent.msg_id
    assert (clone.src, clone.dst, clone.kind, clone.payload,
            clone.send_time) == (0, 1, "m", "x", sent.send_time)
