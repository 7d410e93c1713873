"""The four per-update value records keep their contract.

``Timestamp``, ``LogEntry``, ``UpdateRecord`` and ``ReplicaUpdate`` are built
once or more per write, so their representation is a performance decision;
what the rest of the code (and these tests) may rely on is only this:
immutable, compared and hashed by value, constructed by keyword or by
position in the declared field order, picklable, and named as they always
were.  The hot construction sites skip the generated ``__new__`` (they call
``tuple.__new__`` directly), so each one is checked to hand out exactly
the record its keyword constructor would.
"""

import pickle

import pytest

from repro.replication import (
    DeferredUpdateSystem,
    LazyGroupSystem,
    ReplicaUpdate,
    SystemSpec,
)
from repro.storage.versioning import Timestamp, TimestampGenerator
from repro.storage.wal import LogEntry, WriteAheadLog
from repro.txn.ops import IncrementOp, WriteOp
from repro.txn.transaction import UpdateRecord

OP = IncrementOp(2, 5)
OLD, NEW = Timestamp(1, 0), Timestamp(2, 0)

#: (type, required fields in declared order, defaulted fields in order)
RECORDS = [
    (Timestamp, {"counter": 3, "node_id": 1}, {}),
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
    assert Timestamp(1, 9) < Timestamp(2, 0) < Timestamp(2, 1)
    assert max(Timestamp(2, 1), Timestamp(2, 0)) == Timestamp(2, 1)
    assert sorted([Timestamp(2, 0), Timestamp(1, 5), Timestamp.ZERO]) == [
        Timestamp.ZERO, Timestamp(1, 5), Timestamp(2, 0),
    ]
    assert Timestamp.ZERO == Timestamp(0, -1)
    assert str(Timestamp(3, 1)) == "3@1"
    assert Timestamp(3, 1).next_at(0) == Timestamp(4, 0)


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
    new_ts = Timestamp(1, 0)

    assert node.wal.entries_for(txn.txn_id) == [
        LogEntry(txn_id=txn.txn_id, oid=2, before_value=0,
                 before_ts=Timestamp.ZERO, after_value=5, after_ts=new_ts,
                 seq=0)
    ]
    assert txn.updates == [
        UpdateRecord(oid=2, op=OP, old_value=0, old_ts=Timestamp.ZERO,
                     new_value=5, new_ts=new_ts)
    ]
    assert system._shipped_updates(txn) == [
        ReplicaUpdate(oid=2, old_ts=Timestamp.ZERO, new_ts=new_ts,
                      new_value=5, op=OP, root_txn_id=txn.txn_id)
    ]


def _tick():
    return TimestampGenerator(3).tick(), Timestamp(counter=1, node_id=3)


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
        oid=2, op=OP, old_value=0, old_ts=Timestamp.ZERO, new_value=5,
        new_ts=Timestamp(counter=1, node_id=0),
    )


def _shipped_update():
    system, txn = _executed()
    return system._shipped_updates(txn)[0], ReplicaUpdate(
        oid=2, old_ts=Timestamp.ZERO, new_ts=Timestamp(counter=1, node_id=0),
        new_value=5, op=OP, root_txn_id=txn.txn_id,
    )


def _certified_update():
    system = DeferredUpdateSystem(SystemSpec(num_nodes=2, db_size=4))
    shipped = []
    system._fan_out = lambda sender, kind, updates: shipped.extend(updates)
    write = WriteOp(3, 9)
    system._certify(system.nodes[0], (1, 42, (), ((3, OLD, 9, write),)))
    return shipped[0], ReplicaUpdate(
        oid=3, old_ts=OLD, new_ts=Timestamp(counter=1, node_id=0),
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
        for name in ("Timestamp", "LogEntry", "UpdateRecord", "ReplicaUpdate",
                     "IncrementOp", "WriteOp")
    }
    assert eval(repr(built), names) == expected
    clone = pickle.loads(pickle.dumps(built))
    assert type(clone) is cls and clone == expected
