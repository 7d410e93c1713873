"""The replica audit visits only materialised objects — and must still be
the full-keyspace definition.

``ReplicatedSystem.diverged_objects`` walks the union of materialised
oids instead of ``range(db_size)``; ``divergence()``,
``base_divergence()`` and ``faults.oracle.divergence_report()`` are its
three callers.  A test-local reference that *does* sweep the whole
keyspace must agree with all of them — count and oids — under full, hash
and directory placement,
on stores that hold only what was touched and on stores filled up front
(the ``fill_stores_up_front`` reference: the walk then *is* the whole
keyspace), for every strategy, after a live migration, and on
hand-corrupted replicas; and none of the three may materialise a record.
"""

import pytest

from repro.analytic import ModelParameters
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
    assert system.snapshot(system.num_nodes - 1)[4999] == 0  # logically all there


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
