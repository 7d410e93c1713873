"""Tests for Record and ObjectStore."""

import copy
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.replication import LazyGroupSystem, SystemSpec
from repro.storage.record import Record
from repro.storage.store import ObjectStore
from repro.storage.versioning import ZERO, stamp


class TestRecord:
    def test_defaults(self):
        record = Record()
        assert record.value == 0
        assert record.ts == ZERO
        assert Record.__slots__ == ("value", "ts")

    def test_copy_is_independent(self):
        record = Record(value=10, ts=stamp(1, 0))
        snapshot = copy.copy(record)
        record.value = 20
        assert snapshot.value == 10
        assert snapshot.ts == stamp(1, 0)


class TestObjectStore:
    def test_initialization(self):
        store = ObjectStore(node_id=0, db_size=5, initial_value=7)
        # logically the whole keyspace, materially nothing until written
        assert list(store.oids()) == [0, 1, 2, 3, 4]
        assert len(store) == store.materialized == 0
        assert all(store.value(oid) == 7 for oid in store.oids())
        assert all(store.timestamp(oid) == ZERO for oid in store.oids())
        assert all(store.read(oid).value == 7 for oid in store.oids())
        assert len(store) == 0  # a read materialises nothing
        store.write(3, 8, stamp(1, 0))
        assert list(store.materialized_oids()) == [3]

    def test_db_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ObjectStore(node_id=0, db_size=0)

    def test_write_and_read(self):
        store = ObjectStore(node_id=0, db_size=3)
        ts = stamp(1, 0)
        store.write(1, 42, ts)
        assert store.value(1) == 42
        assert store.timestamp(1) == ts
        assert store.value(0) == 0  # others untouched

    def test_read_unknown_oid_raises(self):
        store = ObjectStore(node_id=0, db_size=3)
        with pytest.raises(KeyError):
            store.read(99)

    def test_apply_transform(self):
        store = ObjectStore(node_id=0, db_size=3, initial_value=10)
        store.apply(0, lambda v: v * 2, stamp(1, 0))
        assert store.value(0) == 20

    def test_restore_rolls_back(self):
        store = ObjectStore(node_id=0, db_size=3)
        store.write(0, 5, stamp(1, 0))
        store.restore(0, 0, ZERO)
        assert store.value(0) == 0
        assert store.timestamp(0) == ZERO

    def test_snapshot(self):
        store = ObjectStore(node_id=0, db_size=3)
        store.write(2, 9, stamp(1, 0))
        # the logical view: untouched objects read initial_value ...
        assert store.snapshot() == {0: 0, 1: 0, 2: 9}
        assert len(store) == 1  # ... and taking it allocates nothing

    def test_contains_and_iter(self):
        store = ObjectStore(node_id=0, db_size=2)
        # ``in`` answers for the logical replica, materialized_oids for
        # the records a write has materialised
        assert 0 in store and 1 in store and 2 not in store and -1 not in store
        assert list(store.materialized_oids()) == []
        store.read(1)
        assert list(store.materialized_oids()) == []
        store.write(1, 5, stamp(1, 0))
        assert list(store.materialized_oids()) == [1]
        assert (store.read(1).value, store.read(1).ts) == (5, stamp(1, 0))

    def test_predicate_residency(self):
        store = ObjectStore(node_id=0, db_size=6, resident=lambda oid: oid % 2 == 0)
        assert list(store.oids()) == [0, 2, 4]
        assert 2 in store and 3 not in store and 6 not in store
        assert store.snapshot() == {0: 0, 2: 0, 4: 0}
        with pytest.raises(KeyError):
            store.read(3)
        with pytest.raises(KeyError):
            store.peek(3)
        assert store.peek(2) == 0 and len(store) == 0

    def test_value_and_timestamp_of_a_non_resident_oid_raise(self):
        store = ObjectStore(node_id=0, db_size=6, resident=lambda oid: oid % 2 == 0)
        for oid in (3, 6, -1):
            with pytest.raises(KeyError):
                store.value(oid)
            with pytest.raises(KeyError):
                store.timestamp(oid)
        assert (store.value(2), store.timestamp(2)) == (0, ZERO)
        assert len(store) == 0


@pytest.mark.parametrize(
    "resident", [None, {0, 2, 4, 6}.__contains__], ids=["whole", "predicate"]
)
def test_answering_an_unwritten_object_allocates_nothing(resident):
    """``value`` / ``timestamp`` of a resident object never written here
    answer from ``initial_value`` / ``ZERO``: no record, not even a
    throwaway one, is built."""
    store = ObjectStore(node_id=0, db_size=8, initial_value=7, resident=resident)
    store.write(4, 1, stamp(1, 0))
    unwritten = [0, 2, 6] * 200
    value, timestamp = store.value, store.timestamp
    tracemalloc.start()
    try:
        for oid in unwritten:  # warm: the measured loop runs as it will
            value(oid), timestamp(oid)
        storage = tracemalloc.Filter(True, "*/repro/storage/*")
        before = tracemalloc.take_snapshot().filter_traces([storage])
        loop = iter(unwritten)
        tracemalloc.reset_peak()
        for oid in loop:
            value(oid)
            timestamp(oid)
        current, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot().filter_traces([storage])
    finally:
        tracemalloc.stop()
    assert peak == current  # nothing was allocated, even for a moment
    assert [s for s in after.compare_to(before, "filename") if s.size_diff] == []
    assert (value(0), timestamp(0)) == (7, ZERO) and len(store) == 1


class TestDivergence:
    """The one audit, judged from hand-written stores: full replicas that
    materialise nothing until written must still compare as the whole
    keyspace."""

    def _system(self, n):
        system = LazyGroupSystem(SystemSpec(num_nodes=n, db_size=4))
        return system, [node.store for node in system.nodes]

    def test_identical_stores_converged(self):
        system, _ = self._system(3)
        assert system.divergence() == 0

    def test_single_store_trivially_converged(self):
        system, stores = self._system(1)
        stores[0].write(2, 99, stamp(1, 0))
        assert system.divergence() == 0

    def test_one_differing_object(self):
        system, stores = self._system(3)
        stores[1].write(2, 99, stamp(1, 1))
        assert system.divergence() == 1
        # the other two holders never materialised object 2
        assert [len(store) for store in stores] == [0, 1, 0]

    def test_multiple_differing_objects(self):
        system, stores = self._system(2)
        stores[0].write(0, 1, stamp(1, 0))
        stores[0].write(3, 1, stamp(2, 0))
        assert system.divergence() == 2
        assert system.divergence([0]) == 0  # one compared store agrees with itself

    def test_same_writes_everywhere_converged(self):
        system, stores = self._system(3)
        for store in stores:
            store.write(1, 55, stamp(1, 0))
        assert system.divergence() == 0


# --------------------------------------------------------------------- #
# model test: the store against a plain dict
# --------------------------------------------------------------------- #

DB_SIZE = 6
INITIAL = 7

_oids = st.integers(min_value=-1, max_value=DB_SIZE)  # one past either end
_values = st.integers(min_value=-50, max_value=50)
_stamps = st.builds(stamp, st.integers(0, 4), st.integers(0, 2))
_steps = st.one_of(
    st.tuples(st.sampled_from(["read", "peek", "in", "evict"]), _oids),
    st.tuples(st.sampled_from(["write", "apply", "restore"]), _oids, _values, _stamps),
    # a migration only ever ships an object of the database
    st.tuples(st.just("adopt"), st.integers(0, DB_SIZE - 1), _values, _stamps),
    st.tuples(st.just("snapshot")),
)


class DictStore:
    """What the store must be indistinguishable from: a dict of the
    records written so far, plus the set of logically resident oids."""

    def __init__(self, resident):
        self.resident = resident
        self.records = {}

    def holds(self, oid):
        return oid in self.records or oid in self.resident

    def look(self, oid):
        if not self.holds(oid):
            raise KeyError(oid)
        return self.records.get(oid, (INITIAL, ZERO))

    def step(self, name, oid=None, value=None, ts=None):
        if name == "read":
            return self.look(oid)
        if name == "peek":
            return self.look(oid)[0]
        if name == "in":
            return self.holds(oid)
        if name == "evict":
            self.records.pop(oid, None)
        elif name in ("write", "restore"):
            self.look(oid)
            self.records[oid] = (value, ts)
        elif name == "apply":
            self.records[oid] = (self.look(oid)[0] + value, ts)
        elif name == "adopt":
            if oid not in self.records or ts > self.records[oid][1]:
                self.records[oid] = (value, ts)
        elif name == "snapshot":
            return {o: self.look(o)[0] for o in range(DB_SIZE) if self.holds(o)}
        return None


def _store_step(store, name, oid=None, value=None, ts=None):
    if name == "read":
        record = store.read(oid)
        assert (store.value(oid), store.timestamp(oid)) == (record.value, record.ts)
        return record.value, record.ts
    if name == "peek":
        return store.peek(oid)
    if name == "in":
        return oid in store
    if name == "evict":
        return store.evict(oid)
    if name == "apply":
        store.apply(oid, lambda current: current + value, ts)
    elif name == "snapshot":
        return store.snapshot()
    else:
        getattr(store, name)(oid, value, ts)
    return None


@pytest.mark.parametrize("resident", [None, {0, 3, 4}], ids=["whole", "predicate"])
@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_steps, max_size=30))
def test_store_is_a_dict_of_what_was_touched(resident, steps):
    store = ObjectStore(
        0, DB_SIZE, INITIAL,
        resident=None if resident is None else resident.__contains__,
    )
    model = DictStore(set(range(DB_SIZE)) if resident is None else resident)
    for step in steps:
        try:
            expected = model.step(*step)
        except KeyError:
            with pytest.raises(KeyError):
                _store_step(store, *step)
        else:
            assert _store_step(store, *step) == expected
        # materialised view: exactly the records written, whatever they hold
        assert len(store) == store.materialized == len(model.records)
        assert {
            oid: (store.read(oid).value, store.read(oid).ts)
            for oid in store.materialized_oids()
        } == model.records
        assert set(store.materialized_oids()) == set(model.records)
        # logical view: the resident oids, touched or not, in oid order
        assert list(store.oids()) == [o for o in range(DB_SIZE) if model.holds(o)]
