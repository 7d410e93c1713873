"""Placement layer: rendezvous hashing determinism, balance, stability.

The :class:`~repro.placement.HashShardPlacement` contract:

* pure function of (seed, oid, node) — the same spec bound twice, or in
  two different processes, yields identical replica sets;
* highest-random-weight selection spreads the ``k`` replicas of a uniform
  keyspace evenly across nodes (balance within ±20% of the mean);
* adding a node moves only ~k/(N+1) of all (object, replica) assignments
  — the minimal-disruption property that makes HRW a *stable* placement.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.placement import FullReplication, HashShardPlacement, Placement
from repro.placement.hash_shard import _score


# --------------------------------------------------------------------- #
# spec strings and serialisation
# --------------------------------------------------------------------- #


def test_from_spec_full():
    spec = Placement.from_spec("full")
    assert isinstance(spec, FullReplication)
    assert spec.to_dict() == {"kind": "full"}


def test_from_spec_hash_variants():
    assert Placement.from_spec("hash:k=3") == HashShardPlacement(
        replication_factor=3
    )
    assert Placement.from_spec("hash:k=3,seed=7") == HashShardPlacement(
        replication_factor=3, placement_seed=7
    )
    assert Placement.from_spec("hash:replication_factor=2") == (
        HashShardPlacement(replication_factor=2)
    )
    # bare "hash" takes the default factor
    assert Placement.from_spec("hash") == HashShardPlacement()


def test_spec_string_parses_to_the_pinned_dict():
    """``to_dict`` is the kind, then the dataclass fields in declaration
    order: the form the campaign cache key hashes."""
    for text, expected in (
        ("full", {"kind": "full"}),
        ("hash:k=3", {"kind": "hash", "replication_factor": 3,
                      "placement_seed": 0}),
        ("hash:k=2,seed=9", {"kind": "hash", "replication_factor": 2,
                             "placement_seed": 9}),
    ):
        data = Placement.from_spec(text).to_dict()
        assert data == expected
        assert list(data) == list(expected)


#: each bad spec and the one-line message it is rejected with
BAD_SPECS = {
    "hash:k=0": "replication_factor must be >= 1, got 0",
    "hash:k=x": "bad value for 'k': 'x' is not an integer",
    "hash:wat=3": "unknown placement spec key 'wat'; expected one of "
                  "['k', 'seed']",
    "mesh:k=3": "unknown placement kind 'mesh'; expected one of "
                "['dir', 'full', 'hash']",
    "full:k=3": "placement kind 'full' takes no parameters, got ['k']",
}


@pytest.mark.parametrize("bad", list(BAD_SPECS))
def test_bad_specs_are_rejected(bad):
    with pytest.raises(ConfigurationError) as caught:
        Placement.from_spec(bad)
    assert str(caught.value) == BAD_SPECS[bad]


# --------------------------------------------------------------------- #
# full replication binding
# --------------------------------------------------------------------- #


def test_full_replication_masters_round_robin():
    bound = FullReplication().bind(num_nodes=4, db_size=20)
    assert bound.is_full
    assert bound.replication_factor == 4
    for oid in range(20):
        assert bound.replicas(oid) == (0, 1, 2, 3)
        assert bound.master(oid) == oid % 4
    assert bound.resident_counts() == [20] * 4


# --------------------------------------------------------------------- #
# hash placement: determinism
# --------------------------------------------------------------------- #


def test_hash_placement_is_deterministic_across_bindings():
    a = HashShardPlacement(replication_factor=3).bind(100, 500)
    b = HashShardPlacement(replication_factor=3).bind(100, 500)
    for oid in range(500):
        assert a.replicas(oid) == b.replicas(oid)
        assert a.master(oid) == b.master(oid)


def test_hash_placement_seed_changes_layout():
    a = HashShardPlacement(replication_factor=3).bind(20, 200)
    b = HashShardPlacement(replication_factor=3, placement_seed=1).bind(20, 200)
    assert any(a.replicas(oid) != b.replicas(oid) for oid in range(200))


def test_replicas_are_distinct_master_first():
    bound = HashShardPlacement(replication_factor=3).bind(10, 100)
    for oid in range(100):
        replicas = bound.replicas(oid)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        assert replicas[0] == bound.master(oid)


def test_factor_capped_at_node_count_degrades_to_full():
    bound = HashShardPlacement(replication_factor=5).bind(3, 50)
    assert bound.is_full
    assert bound.replication_factor == 3
    assert bound.resident_counts() == [50] * 3


# --------------------------------------------------------------------- #
# the lane-packed kernel is the scalar _score ranking, bit for bit
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("nodes", [1, 2, 3, 5, 32, 100, 1000])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    oids=st.lists(
        st.integers(min_value=0, max_value=2**48), min_size=1, max_size=4
    ),
)
def test_kernel_ranks_exactly_like_the_scalar_score(nodes, seed, oids):
    for k in (1, 3, nodes):
        bound = HashShardPlacement(k, placement_seed=seed).bind(nodes, 2**48 + 1)
        for oid in oids:
            reference = sorted(
                range(nodes), key=lambda n: (-_score(seed, oid, n), n)
            )
            assert bound.replicas(oid) == tuple(reference[:k]), (seed, oid, k)


#: (placement_seed, nodes, oid) -> replicas at k=3, computed by the
#: pre-kernel per-node ranking: pins the assignment independently of _score
PINNED_REPLICAS = [
    (0, 32, 0, (8, 13, 21)),
    (0, 32, 49999, (25, 17, 12)),
    (0, 5, 17, (2, 0, 4)),
    (7, 32, 123456789, (0, 15, 10)),
    (7, 100, 2**48 - 1, (87, 96, 42)),
    (1, 3, 1, (1, 2, 0)),
    (42, 1000, 999999, (233, 226, 42)),
    (42, 1000, 2**40 + 12345, (44, 799, 787)),
    (9, 2, 8, (0, 1)),
    (3, 100, 31337, (65, 13, 61)),
    (0, 1, 5, (0,)),
]


@pytest.mark.parametrize("seed,nodes,oid,expected", PINNED_REPLICAS)
def test_pinned_replica_sets(seed, nodes, oid, expected):
    bound = HashShardPlacement(3, placement_seed=seed).bind(nodes, 2**48)
    assert bound.replicas(oid) == expected
    assert bound.master(oid) == expected[0]


def test_equal_scores_rank_the_lower_node_id_first():
    # two nodes cannot collide through the mixer in practice, so force the
    # tie: identical lane terms give every node the same score
    bound = HashShardPlacement(3).bind(8, 100)
    first_lane = bound._lane_terms & ((1 << 128) - 1)
    bound._lane_terms = first_lane * bound._lane_ones
    assert bound.replicas(11) == (0, 1, 2)


# --------------------------------------------------------------------- #
# the memo: one k-byte replica row per object
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("nodes, width", [
    (1, 1), (2, 1), (3, 1), (32, 1), (300, 2),
])
def test_replica_rows_are_the_score_ranking(nodes, width):
    """A row holds each replica in ``width`` bytes, and reading it back
    — a repeated lookup — gives the ``_score`` ranking again, with the
    factor clamped to the node count."""
    seed = 5
    oids = [0, 1, 2, 4097, 99_999]
    for factor in (1, 3, nodes, nodes + 2):
        bound = HashShardPlacement(factor, placement_seed=seed).bind(
            nodes, 100_000
        )
        k = min(factor, nodes)
        assert bound._stride == k * width
        expected = {
            oid: tuple(sorted(
                range(nodes), key=lambda n: (-_score(seed, oid, n), n)
            )[:k])
            for oid in oids
        }
        for _ in range(2):  # first lookups score, the second pass reads rows
            for oid in oids:
                assert bound.replicas(oid) == expected[oid], (nodes, k, oid)
                assert bound.master(oid) == expected[oid][0]


def test_hash_resident_counts_agree_with_replica_sets():
    bound = HashShardPlacement(3).bind(10, 640)
    counts = bound.resident_counts()
    assert sum(counts) == 3 * 640
    for node in range(10):
        assert counts[node] == sum(
            node in bound.replicas(oid) for oid in range(640)
        )


def test_hash_resident_counts_leave_the_memo_empty():
    bound = HashShardPlacement(3).bind(32, 6_400)
    counts = bound.resident_counts()
    assert not bound._pages  # counting the keyspace allocates no page
    expected = [0] * 32
    for oid in range(6_400):
        for node in bound.replicas(oid):
            expected[node] += 1
    assert counts == expected


# --------------------------------------------------------------------- #
# balance
# --------------------------------------------------------------------- #


def test_shards_balance_within_20_percent():
    nodes, db, k = 100, 10_000, 3
    bound = HashShardPlacement(replication_factor=k).bind(nodes, db)
    counts = bound.resident_counts()
    assert sum(counts) == k * db
    mean = k * db / nodes
    for node, count in enumerate(counts):
        assert abs(count - mean) <= 0.2 * mean, (
            f"node {node} holds {count} objects; mean is {mean:.0f}"
        )


# --------------------------------------------------------------------- #
# stability under node addition (the HRW minimal-disruption property)
# --------------------------------------------------------------------- #


def test_adding_a_node_moves_few_assignments():
    db, k = 2_000, 3
    before = HashShardPlacement(replication_factor=k).bind(20, db)
    after = HashShardPlacement(replication_factor=k).bind(21, db)
    moved = sum(
        len(set(before.replicas(oid)) - set(after.replicas(oid)))
        for oid in range(db)
    )
    total = k * db
    expected_fraction = k / 21  # each of an object's k slots moves w.p. ~1/(N+1)
    assert moved / total < 2 * expected_fraction, (
        f"{moved}/{total} assignments moved; HRW should move ~{expected_fraction:.1%}"
    )
    # and the surviving assignments are untouched: every object keeps at
    # least k-1 of its old replicas on average
    kept = total - moved
    assert kept / total > 1 - 2 * expected_fraction


# --------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------- #


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        HashShardPlacement(replication_factor=0)
    with pytest.raises(ConfigurationError):
        HashShardPlacement(replication_factor=3, placement_seed=-1)
    with pytest.raises(ConfigurationError):
        HashShardPlacement(replication_factor=3).bind(0, 10)
    with pytest.raises(ConfigurationError):
        FullReplication().bind(3, 0)
