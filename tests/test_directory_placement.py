"""Directory placement: spec grammar, map construction, migration, parity.

The :class:`~repro.placement.DirectoryPlacement` contract:

* deterministic, seeded map construction — the same spec bound twice (or in
  two processes) yields identical replica sets, and the seed reshuffles
  them without touching workload randomness;
* locality grouping co-locates contiguous object-id ranges on one replica
  set (hash grouping scatters them — the ablation baseline);
* :meth:`~repro.placement.directory.BoundDirectory.move` rewrites a single
  object's replica set live, and ``ReplicatedSystem.migrate`` pairs that
  with a record transfer through the normal network path;
* materialising on first write is unobservable — the parity class pins
  byte-identical fingerprints between a run whose stores were filled up
  front (the ``fill_stores_up_front`` reference in ``conftest.py``) and
  the lazy stores every system has.
"""

import hashlib

import pytest

from repro.analytic.parameters import ModelParameters
from repro.exceptions import ConfigurationError, InvalidStateError
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.experiment import STRATEGIES
from repro.network.message import reset_message_ids
from repro.placement import (
    DirectoryPlacement,
    FullReplication,
    HashShardPlacement,
    Placement,
)
from repro.replication import LazyGroupSystem, LazyMasterSystem, SystemSpec
from repro.sim.tracing import Tracer
from repro.txn.ops import WriteOp
from repro.txn.transaction import reset_txn_ids


# --------------------------------------------------------------------- #
# spec strings and serialisation
# --------------------------------------------------------------------- #


def test_from_spec_dir_variants():
    assert Placement.from_spec("dir") == DirectoryPlacement()
    assert Placement.from_spec("dir:k=2") == DirectoryPlacement(
        replication_factor=2
    )
    assert Placement.from_spec(
        "dir:k=2,shards=7,group=hash,seed=9"
    ) == DirectoryPlacement(
        replication_factor=2, shards=7, grouping="hash", placement_seed=9
    )
    # long-form keys parse too
    assert Placement.from_spec(
        "dir:replication_factor=4,grouping=locality,placement_seed=1"
    ) == DirectoryPlacement(replication_factor=4, placement_seed=1)


def test_spec_string_parses_to_the_pinned_dict():
    for text, fields in (
        ("dir", (3, 0, "locality", 0)),
        ("dir:k=2", (2, 0, "locality", 0)),
        ("dir:k=3,shards=16", (3, 16, "locality", 0)),
        ("dir:k=2,group=hash,seed=5", (2, 0, "hash", 5)),
    ):
        data = Placement.from_spec(text).to_dict()
        assert list(data.items()) == list(zip(
            ("kind", "replication_factor", "shards", "grouping",
             "placement_seed"),
            ("dir",) + fields,
        ))


#: each bad spec and the one-line message it is rejected with
BAD_SPECS = {
    "dir:k=0": "replication_factor must be >= 1, got 0",
    "dir:k=x": "bad value for 'k': 'x' is not an integer",
    "dir:shards=-1": "shards must be >= 0 (0 means auto), got -1",
    "dir:group=wat": "grouping must be one of ['locality', 'hash'], got 'wat'",
    "dir:seed=-1": "placement_seed must be >= 0, got -1",
    "dir:wat=3": "unknown placement spec key 'wat'; expected one of "
                 "['k', 'shards', 'group', 'seed']",
}


@pytest.mark.parametrize("bad", list(BAD_SPECS))
def test_bad_specs_are_rejected(bad):
    with pytest.raises(ConfigurationError) as caught:
        Placement.from_spec(bad)
    assert str(caught.value) == BAD_SPECS[bad]


# --------------------------------------------------------------------- #
# map construction: determinism, structure, clamping
# --------------------------------------------------------------------- #


def test_binding_is_deterministic_and_seed_sensitive():
    a = DirectoryPlacement(replication_factor=3).bind(10, 1000)
    b = DirectoryPlacement(replication_factor=3).bind(10, 1000)
    for oid in range(1000):
        assert a.replicas(oid) == b.replicas(oid)
    reseeded = DirectoryPlacement(
        replication_factor=3, placement_seed=1
    ).bind(10, 1000)
    assert any(
        a.replicas(oid) != reseeded.replicas(oid) for oid in range(1000)
    )


def test_replicas_are_distinct_master_first():
    bound = DirectoryPlacement(replication_factor=3).bind(10, 500)
    for oid in range(500):
        replicas = bound.replicas(oid)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        assert all(0 <= node < 10 for node in replicas)
        assert replicas[0] == bound.master(oid)


def test_rotation_spreads_mastership_beyond_stride_residues():
    # shard s starts at s*k mod N; with k=2, N=10 the un-rotated starts
    # visit only 5 ring slots — the seeded window rotation must spread
    # masters wider than that
    bound = DirectoryPlacement(replication_factor=2).bind(10, 1000)
    masters = {bound.master(oid) for oid in range(1000)}
    assert len(masters) > 5


def test_factor_capped_at_node_count_degrades_to_full():
    bound = DirectoryPlacement(replication_factor=9).bind(3, 50)
    assert bound.is_full
    assert bound.replication_factor == 3
    assert bound.resident_counts() == [50] * 3


def test_shard_count_defaults_and_clamps():
    # default: min(num_nodes, db_size)
    assert DirectoryPlacement().bind(4, 1000).shard_count == 4
    assert DirectoryPlacement().bind(4000, 100).shard_count == 100
    # explicit requests clamp into [1, db_size]
    assert DirectoryPlacement(shards=500).bind(4, 10).shard_count == 10
    assert DirectoryPlacement(shards=7).bind(4, 1000).shard_count == 7


def test_locality_groups_contiguous_ids_hash_scatters_them():
    locality = DirectoryPlacement(replication_factor=2).bind(10, 1000)
    hashed = DirectoryPlacement(
        replication_factor=2, grouping="hash"
    ).bind(10, 1000)
    # 10 shards over 1000 ids: the first 100 ids are one locality shard
    assert len({locality.replicas(oid) for oid in range(100)}) == 1
    assert len({hashed.replicas(oid) for oid in range(100)}) > 1
    # both groupings cover every object with exactly k replicas
    for bound in (locality, hashed):
        assert sum(bound.resident_counts()) == 2 * 1000


def test_resident_counts_match_replica_sets():
    for grouping in ("locality", "hash"):
        bound = DirectoryPlacement(
            replication_factor=3, grouping=grouping
        ).bind(7, 200)
        counts = bound.resident_counts()
        assert counts == [
            sum(node in bound.replicas(oid) for oid in range(200))
            for node in range(7)
        ]
        assert sum(counts) == 3 * 200


# --------------------------------------------------------------------- #
# move(): the directory rewrite
# --------------------------------------------------------------------- #


def test_move_replaces_src_with_dst_preserving_master():
    bound = DirectoryPlacement(replication_factor=3).bind(8, 100)
    oid = 17
    before = bound.replicas(oid)
    src = before[1]  # a non-master member
    dst = next(n for n in range(8) if n not in before)
    after = bound.move(oid, src, dst)
    assert bound.replicas(oid) == after
    assert after[0] == before[0]  # master unchanged
    assert src not in after and dst in after
    assert bound.moved == 1
    # only the moved object changed
    assert all(
        bound.replicas(other) == DirectoryPlacement(
            replication_factor=3
        ).bind(8, 100).replicas(other)
        for other in range(100) if other != oid
    )


def test_moving_the_master_transfers_mastership():
    bound = DirectoryPlacement(replication_factor=3).bind(8, 100)
    oid = 40
    src = bound.master(oid)
    dst = next(n for n in range(8) if n not in bound.replicas(oid))
    bound.move(oid, src, dst)
    assert bound.master(oid) == dst


def test_move_updates_residency_bookkeeping():
    bound = DirectoryPlacement(replication_factor=2).bind(6, 120)
    before = bound.resident_counts()
    oid = 60
    src = bound.replicas(oid)[0]
    dst = next(n for n in range(6) if n not in bound.replicas(oid))
    bound.move(oid, src, dst)
    after = bound.resident_counts()
    assert after[src] == before[src] - 1
    assert after[dst] == before[dst] + 1
    assert sum(after) == sum(before)
    assert dst in bound.replicas(oid)
    assert src not in bound.replicas(oid)


def test_move_validates_endpoints():
    bound = DirectoryPlacement(replication_factor=2).bind(6, 50)
    oid = 10
    replicas = bound.replicas(oid)
    outsider = next(n for n in range(6) if n not in replicas)
    with pytest.raises(ConfigurationError):
        bound.move(50, replicas[0], outsider)  # oid out of range
    with pytest.raises(ConfigurationError):
        bound.move(oid, replicas[0], 6)  # dst out of range
    with pytest.raises(ConfigurationError):
        bound.move(oid, outsider, replicas[0])  # src does not hold oid
    with pytest.raises(ConfigurationError):
        bound.move(oid, replicas[0], replicas[1])  # dst already holds oid
    assert bound.moved == 0


def test_computed_placements_refuse_to_move():
    with pytest.raises(ConfigurationError):
        FullReplication().bind(4, 50).move(0, 0, 1)
    with pytest.raises(ConfigurationError):
        HashShardPlacement(replication_factor=2).bind(4, 50).move(0, 0, 1)


# --------------------------------------------------------------------- #
# live migration through the system layer
# --------------------------------------------------------------------- #


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


def test_migrate_transfers_the_record_and_evicts_the_source():
    system = _dir_system()
    placement = system.placement
    oid = 7
    master = placement.master(oid)
    src = placement.replicas(oid)[1]
    dst = next(
        n for n in range(system.num_nodes)
        if n not in placement.replicas(oid)
    )
    system.submit(master, [WriteOp(oid, 777)])
    system.run()
    system.migrate(oid, src, dst)
    system.run()
    assert placement.replicas(oid) == (master, dst)
    assert system.nodes[dst].store.peek(oid) == 777
    # the source no longer holds (or materialises) the object
    assert oid not in system.nodes[src].store
    assert system.divergence() == 0
    assert system.metrics.as_dict()["migrations"] == 1
    assert placement.moved == 1


def test_writes_route_to_the_new_replica_set_after_migration():
    system = _dir_system()
    placement = system.placement
    oid = 30
    master = placement.master(oid)
    src = placement.replicas(oid)[1]
    dst = next(
        n for n in range(system.num_nodes)
        if n not in placement.replicas(oid)
    )
    system.migrate(oid, src, dst)
    system.run()
    system.submit(master, [WriteOp(oid, 1234)])
    system.run()
    assert system.nodes[dst].store.peek(oid) == 1234
    assert system.nodes[master].store.peek(oid) == 1234
    assert oid not in system.nodes[src].store
    assert system.divergence() == 0


def test_migrating_the_master_rebinds_ownership():
    system = _dir_system(cls=LazyMasterSystem)
    placement = system.placement
    oid = 12
    src = placement.master(oid)
    dst = next(
        n for n in range(system.num_nodes)
        if n not in placement.replicas(oid)
    )
    assert system.master_of(oid).node_id == src
    system.migrate(oid, src, dst)
    system.run()
    assert system.master_of(oid).node_id == dst
    # writes keep committing through the new owner
    origin = (dst + 1) % system.num_nodes
    system.submit(origin, [WriteOp(oid, 55)])
    system.run()
    assert system.nodes[dst].store.peek(oid) == 55
    assert system.divergence() == 0


def test_migrate_rejects_crashed_endpoints_and_computed_placements():
    system = _dir_system()
    placement = system.placement
    oid = 3
    src = placement.replicas(oid)[1]
    dst = next(
        n for n in range(system.num_nodes)
        if n not in placement.replicas(oid)
    )
    system.crash_node(src)
    with pytest.raises(InvalidStateError):
        system.migrate(oid, src, dst)
    system.recover_node(src)
    with pytest.raises(ConfigurationError):
        system.migrate(oid, src, system.num_nodes)  # dst out of range
    hashed = _dir_system(placement=Placement.from_spec("hash:k=2"))
    with pytest.raises(ConfigurationError):
        hashed.migrate(0, hashed.placement.master(0), 5)


# --------------------------------------------------------------------- #
# every strategy runs (and converges) under a directory placement
# --------------------------------------------------------------------- #


_PARAMS = ModelParameters(
    db_size=60, nodes=5, tps=4.0, actions=3, action_time=0.005,
    message_delay=0.002,
)


def _dir_config(strategy, placement_spec="dir:k=3", **overrides):
    if strategy == "two-tier":
        params = _PARAMS.with_(nodes=2)
        num_base = 4
    else:
        params = _PARAMS
        num_base = 1
    kwargs = dict(
        strategy=strategy,
        params=params,
        duration=8.0,
        seed=11,
        num_base=num_base,
        placement=Placement.from_spec(placement_spec),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_converges_under_directory_placement(strategy):
    result = run_experiment(_dir_config(strategy))
    assert result.metrics.commits > 0
    assert result.extra["oracle_ok"] is True
    resident = result.extra["resident_objects"]
    assert resident["replication_factor"] == 3
    # placement scope: 3 copies per object across the placed tier, plus a
    # full replica per out-of-scope mobile under two-tier
    placed_total = 3 * 60
    mobiles = 2 if strategy == "two-tier" else 0
    assert resident["total"] == placed_total + mobiles * 60
    # lazy stores: the run only materialises what it wrote
    assert resident["materialized_total"] <= resident["total"]


# --------------------------------------------------------------------- #
# eager/lazy store parity: byte-identical fingerprints
# --------------------------------------------------------------------- #


def _fingerprint(strategy, placement_spec):
    """Run one config and reduce it to a comparable record.

    Deliberately excludes the ``materialized_*`` extras — those differ
    between filled and lazy stores *by design*; everything observable
    (metrics, divergence, clock, the full trace) must not.
    """
    reset_txn_ids()
    reset_message_ids()
    tracer = Tracer(limit=1_000_000)
    config = (
        _dir_config(strategy, placement_spec, tracer=tracer)
        if placement_spec is not None
        else _dir_config(strategy, tracer=tracer, placement=None)
    )
    result = run_experiment(config)
    trace_lines = "\n".join(e.format() for e in tracer.events())
    resident = result.extra["resident_objects"]
    return {
        "metrics": dict(sorted(result.metrics.as_dict().items())),
        "divergence": result.divergence,
        "end_time": round(result.end_time, 9),
        "trace_events": len(tracer),
        "trace_sha256": hashlib.sha256(trace_lines.encode()).hexdigest(),
        "oracle_ok": result.extra["oracle_ok"],
        "resident_max": resident["max"],
        "resident_total": resident["total"],
    }


@pytest.mark.parametrize("strategy,placement_spec", [
    ("lazy-group", "dir:k=2"),
    ("eager-group", "dir:k=3,group=hash"),
    ("eager-master", "dir:k=2,shards=7,seed=5"),
    ("lazy-master", "hash:k=3"),
    ("lazy-group", None),  # full replication: whole-keyspace residency
])
def test_eager_and_lazy_stores_are_observationally_identical(
    strategy, placement_spec, fill_stores_up_front
):
    lazy = _fingerprint(strategy, placement_spec)
    fill_stores_up_front()
    eager = _fingerprint(strategy, placement_spec)
    assert lazy == eager
    assert lazy["oracle_ok"] is True


def test_lazy_stores_materialise_less_than_eager(fill_stores_up_front):
    lazy = run_experiment(_dir_config("lazy-group", "dir:k=2"))
    fill_stores_up_front()
    eager = run_experiment(_dir_config("lazy-group", "dir:k=2"))
    lazy_resident = lazy.extra["resident_objects"]
    eager_resident = eager.extra["resident_objects"]
    # the filled reference materialises its full nominal shard up front
    assert eager_resident["materialized_total"] == eager_resident["total"]
    # lazy only what the run touched — never more than nominal
    assert lazy_resident["materialized_total"] <= lazy_resident["total"]
    # the nominal view is identical either way
    assert lazy_resident["total"] == eager_resident["total"]
    assert lazy_resident["max"] == eager_resident["max"]
