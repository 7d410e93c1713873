"""The replica audit visits only materialised objects — and must still be
the full-keyspace definition.

``ReplicatedSystem.diverged_objects`` walks the union of materialised
oids instead of ``range(db_size)``; ``divergence()``,
``base_divergence()`` and ``faults.oracle.divergence_report()`` are its
three callers.  A test-local reference that *does* sweep the whole
keyspace must agree with all of them — count and oids — under full, hash
and directory placement,
on stores that hold only what was written and on stores filled up front
(the ``fill_stores_up_front`` reference: the walk then *is* the whole
keyspace), for every strategy, after a live migration, and on
hand-corrupted replicas; and none of the three may materialise a record.
"""

from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytic import ModelParameters
from repro.core import TwoTierSystem
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.experiment import STRATEGIES, build_system
from repro.placement import Placement
from repro.replication import LazyGroupSystem, SystemSpec
from repro.storage.versioning import Timestamp
from repro.txn.ops import WriteOp
from repro.faults.oracle import divergence_report

PARAMS = ModelParameters(
    db_size=60, nodes=5, tps=4.0, actions=3, action_time=0.005,
    message_delay=0.002,
)


def reference_audit(system, node_ids=None):
    """``{oid: per-holder values}`` of diverged objects, by definition:
    every oid in the keyspace, compared across its replica set plus the
    nodes outside the placement scope."""
    placement = system.placement
    extra = tuple(range(placement.num_nodes, system.num_nodes))
    out = {}
    for oid in range(system.db_size):
        holders = placement.replicas(oid) + extra
        if node_ids is not None:
            holders = tuple(n for n in holders if n in node_ids)
        values = [system.nodes[n].store.peek(oid) for n in holders]
        if any(value != values[0] for value in values[1:]):
            out[oid] = values
    return out


def assert_audit_matches_reference(system):
    expected = reference_audit(system)
    assert system.divergence() == len(expected)
    assert divergence_report(system, limit=system.db_size) == expected
    # the report is a prefix of the same walk, in ascending oid order
    assert list(divergence_report(system, limit=1)) == sorted(expected)[:1]
    return expected


def corrupt(system, oid, holder_index=-1, value=987_654):
    node_id = system.placement.replicas(oid)[holder_index]
    system.nodes[node_id].store.write(oid, value, Timestamp(10**6, node_id))
    return node_id


def run(strategy, placement_spec):
    two_tier = strategy == "two-tier"
    return run_experiment(ExperimentConfig(
        strategy=strategy,
        params=PARAMS.with_(nodes=2) if two_tier else PARAMS,
        duration=6.0,
        seed=11,
        num_base=4 if two_tier else 1,
        placement=Placement.from_spec(placement_spec),
    )).system


@pytest.mark.parametrize("stores", ["lazy", "eager"])
@pytest.mark.parametrize("placement_spec", ["full", "hash:k=3", "dir:k=3"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_audit_is_the_full_keyspace_definition(
    strategy, placement_spec, stores, fill_stores_up_front
):
    if stores == "eager":
        fill_stores_up_front()
    system = run(strategy, placement_spec)
    if stores == "eager":
        assert system.materialized_counts() == system.nominal_resident_counts()
    assert_audit_matches_reference(system)
    # and on a state that does diverge: one stale holder each of two objects
    corrupt(system, 7)
    corrupt(system, 41, holder_index=0)
    expected = assert_audit_matches_reference(system)
    assert {7, 41} <= set(expected)
    if strategy == "two-tier":
        base = reference_audit(system, node_ids=system.base_ids)
        assert system.base_divergence() == len(base) >= 2
        assert divergence_report(
            system, system.db_size, system.base_ids
        ) == base


def _dir_system(**overrides):
    kwargs = dict(
        num_nodes=6, db_size=60, action_time=0.001, message_delay=0.002,
        seed=3, placement=Placement.from_spec("dir:k=2"),
    )
    kwargs.update(overrides)
    return LazyGroupSystem(SystemSpec(**kwargs))


def test_audit_after_migration_with_traffic_in_flight():
    system = _dir_system()
    placement = system.placement
    oid = 7
    master, src = placement.replicas(oid)
    dst = next(
        n for n in range(system.num_nodes) if n not in placement.replicas(oid)
    )
    system.submit(master, [WriteOp(oid, 111), WriteOp(8, 5)])
    system.run(until=0.0015)  # committed at the master, updates in flight
    system.migrate(oid, src, dst)
    system.submit(master, [WriteOp(oid, 222)])
    # mid-flight the new holder has not adopted the record yet
    assert_audit_matches_reference(system)
    system.run()
    assert placement.replicas(oid) == (master, dst)
    assert assert_audit_matches_reference(system) == {}
    assert system.nodes[dst].store.peek(oid) == 222


def test_corruption_is_seen_at_touched_and_untouched_objects():
    system = _dir_system(placement=Placement.from_spec("hash:k=3"))
    touched, untouched = 5, 33
    system.submit(system.placement.master(touched), [WriteOp(touched, 1)])
    system.run()
    assert system.divergence() == 0
    assert all(untouched not in node.store._records for node in system.nodes)
    corrupt(system, touched)
    # corrupting an object nobody touched materialises it at that one
    # holder, which is what puts it on the audit's path
    corrupt(system, untouched)
    expected = assert_audit_matches_reference(system)
    assert sorted(expected) == [touched, untouched]
    assert sorted(expected[untouched]) == [0, 0, 987_654]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_building_a_full_replica_materialises_nothing(strategy):
    """Full replication — every default system, and a two-tier system's
    mobiles — used to allocate ``nodes x db_size`` records at build."""
    system = build_system(ExperimentConfig(
        strategy=strategy, params=PARAMS.with_(db_size=5000), num_base=2,
    ))
    assert system.placement.is_full
    assert system.materialized_counts() == [0] * system.num_nodes
    assert system.nominal_resident_counts() == [5000] * system.num_nodes
    assert system.divergence() == 0
    last = system.nodes[system.num_nodes - 1].store
    assert last.snapshot()[4999] == 0  # logically all there


def test_no_audit_materialises_a_record():
    """Regression: ``base_divergence()`` used ``store.value`` and filled
    every base shard, so ``materialized_total`` reported the nominal
    shard instead of what the run touched."""
    system = build_system(ExperimentConfig(
        strategy="two-tier",
        params=ModelParameters(db_size=5000, nodes=2, tps=1.0, actions=2),
        num_base=4,
        placement=Placement.from_spec("hash:k=2"),
    ))
    assert system.materialized_counts() == [0] * 6  # mobiles too
    touched = 1234
    corrupt(system, touched)
    before = system.materialized_counts()
    assert sum(before) == 1
    assert system.base_divergence() == 1
    assert system.divergence() == 1
    assert list(divergence_report(system)) == [touched]
    assert system.materialized_counts() == before


def test_run_experiment_reports_what_the_run_touched():
    result = run_experiment(ExperimentConfig(
        strategy="two-tier",
        params=PARAMS.with_(nodes=2, db_size=2000),
        duration=4.0,
        seed=5,
        num_base=4,
        placement=Placement.from_spec("hash:k=2"),
    ))
    resident = result.extra["resident_objects"]
    base_materialized = sum(result.system.materialized_counts()[:4])
    assert 0 < base_materialized < 2 * 2000 // 4  # far below the base shard
    # a mobile is a full replica and materialises only what the base
    # tier's commits refreshed at it — not its nominal 2000 records
    stores = [node.store for node in result.system.nodes]
    base_touched = set().union(*(s.materialized_oids() for s in stores[:4]))
    for mobile in stores[4:]:
        assert 0 < mobile.materialized <= len(base_touched) < 2000
        assert set(mobile.materialized_oids()) <= base_touched
    assert resident["materialized_total"] == sum(s.materialized for s in stores)
    assert resident["total"] == 2 * 2000 + 2 * 2000  # nominal is unchanged
    assert result.extra["base_divergence"] == 0 == result.divergence


# --------------------------------------------------------------------- #
# the bytearray walk is the set + sorted walk it replaced
# --------------------------------------------------------------------- #


def set_sorted_audit(system, node_ids=None):
    """The audit as it was written before the walk over one
    ``bytearray(db_size)``: the union of materialised oids copied into a
    ``set``, sorted, and every holder tuple narrowed whenever ``node_ids``
    is given.  The reference the differential below holds it to."""
    placement = system.placement
    stores = [node.store for node in system.nodes]
    compared = range(system.num_nodes) if node_ids is None else set(node_ids)
    extra_holders = tuple(range(placement.num_nodes, system.num_nodes))
    visited = set().union(
        *(stores[node_id].materialized_oids() for node_id in compared)
    )
    for oid in sorted(visited):
        holders = placement.replicas(oid) + extra_holders
        if node_ids is not None:
            holders = tuple(n for n in holders if n in compared)
        values = [stores[node_id].peek(oid, True) for node_id in holders]
        if values and values.count(values[0]) != len(values):
            yield oid, holders, values


def _counted_walk(system, audit, node_ids):
    """Run one audit to the end, counting its directory lookups and its
    store probes through instance attributes that shadow the methods."""
    calls = {"replicas": 0, "peek": 0}
    placement = system.placement

    def replicas(oid, _replicas=type(placement).replicas):
        calls["replicas"] += 1
        return _replicas(placement, oid)

    placement.replicas = replicas
    stores = [node.store for node in system.nodes]
    for store in stores:
        def peek(oid, resident=False, _store=store):
            calls["peek"] += 1
            return type(_store).peek(_store, oid, resident)

        store.peek = peek
    try:
        return list(audit(system, node_ids)), calls
    finally:
        del placement.replicas
        for store in stores:
            del store.peek


DB = 40
SHAPES = ("hash", "dir", "full", "two-tier")


def _shaped_system(shape):
    if shape == "two-tier":
        return TwoTierSystem(SystemSpec(
            num_nodes=6, db_size=DB, message_delay=0.002,
            placement=Placement.from_spec("hash:k=2"),
        ), num_base=4)
    return LazyGroupSystem(SystemSpec(
        num_nodes=5, db_size=DB, message_delay=0.002,
        placement=Placement.from_spec(
            {"hash": "hash:k=2", "dir": "dir:k=3", "full": "full"}[shape]
        ),
    ))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    shape=st.sampled_from(SHAPES),
    touches=st.lists(
        st.tuples(
            st.integers(0, DB - 1),  # oid
            st.integers(0, 7),  # which of its holders
            st.one_of(st.none(), st.integers(0, 2)),  # None: a read
        ),
        max_size=40,
    ),
    subset=st.one_of(
        st.none(),
        st.just("every"),
        st.sets(st.integers(0, 5), min_size=1),
    ),
    migrate=st.one_of(st.none(), st.integers(0, DB - 1)),
    limit=st.integers(0, 6),
)
def test_the_walk_yields_what_set_and_sorted_yielded(
    shape, touches, subset, migrate, limit
):
    system = _shaped_system(shape)
    placement = system.placement
    extra = tuple(range(placement.num_nodes, system.num_nodes))
    for oid, pick, value in touches:
        holders = placement.replicas(oid) + extra
        store = system.nodes[holders[pick % len(holders)]].store
        if value is None:
            store.read(oid)  # materialises nothing
        else:
            store.write(oid, value, Timestamp(1, pick))
    if migrate is not None and shape == "dir":
        src = placement.replicas(migrate)[1]
        dst = next(n for n in range(system.num_nodes)
                   if n not in placement.replicas(migrate))
        system.migrate(migrate, src, dst)
        # moved and evicted at the source, the transfer still in flight
        system.run(until=0.001)
        assert migrate not in system.nodes[src].store._records
    if subset == "every":
        node_ids = list(reversed(range(system.num_nodes)))
    elif subset is None:
        # the oracle's call: base_ids (None for a flat system)
        node_ids = system.base_ids
    else:
        node_ids = sorted(n for n in subset if n < system.num_nodes)

    walked, walk_calls = _counted_walk(
        system, type(system).diverged_objects, node_ids
    )
    expected, reference_calls = _counted_walk(
        system, set_sorted_audit, node_ids
    )
    assert walked == expected
    # every holder is still probed and every visited oid still looked up
    assert walk_calls == reference_calls
    assert system.divergence(node_ids) == len(expected)
    assert divergence_report(system, limit, node_ids) == {
        oid: values
        for oid, _holders, values in islice(expected, limit)
    }
