"""Partial replication end-to-end: sharded stores, routing, convergence.

Every strategy runs with a ``hash:k=3`` placement over genuinely sharded
stores (N > k) and must still pass the invariant oracle: replica sets
converge, counters close, no locks leak.  Plus the sharp edge: a
replica-set member that misses an update is flagged as divergence by the
system-level audit, which compares each object across its own holders.
"""

import pytest

from repro.analytic import eager, lazy_group, partial
from repro.analytic.parameters import ModelParameters
from repro.analytic.reference import predicted_rate
from repro.faults.oracle import evaluate as evaluate_oracle
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.experiment import STRATEGIES, STRATEGY_CLASSES
from repro.placement import HashShardPlacement, Placement
from repro.placement.hash_shard import BoundHashShard
from repro.replication import LazyGroupSystem, SystemSpec
from repro.storage.versioning import Timestamp

from tests.determinism_helpers import (
    fingerprint_partial,
    load_partial_golden,
    partial_case_names,
)

_PARAMS = ModelParameters(
    db_size=60, nodes=5, tps=4.0, actions=3, action_time=0.005,
    message_delay=0.002,
)


def _partial_config(strategy: str, **overrides) -> ExperimentConfig:
    defaults = dict(
        strategy=strategy,
        params=_PARAMS,
        duration=10.0,
        seed=7,
        placement=Placement.from_spec("hash:k=3"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# --------------------------------------------------------------------- #
# sharded stores
# --------------------------------------------------------------------- #


def test_each_node_holds_only_its_shard():
    spec = SystemSpec(
        num_nodes=5, db_size=60,
        placement=HashShardPlacement(replication_factor=3),
    )
    system = LazyGroupSystem(spec)
    total = 0
    for node in system.nodes:
        resident = set(node.store.oids())
        expected = {oid for oid in range(60)
                    if node.node_id in system.placement.replicas(oid)}
        assert resident == expected  # logical residency == the placement
        assert len(resident) < 60  # strictly less than db_size
        # lazy default: nothing is materialised until a transaction writes it
        assert node.store.materialized == 0
        total += len(resident)
    assert total == 3 * 60  # k copies of every object, nothing else
    for oid in range(60):
        for node_id in range(5):
            held = oid in system.nodes[node_id].store
            assert held == (node_id in system.placement.replicas(oid))


@pytest.mark.parametrize(
    "strategy", ("eager-master", "lazy-master", "scar", "two-tier")
)
def test_building_a_master_strategy_walks_no_object(strategy, monkeypatch):
    """Mastership is the placement's answer, asked per transaction: a
    master cell over 32 base nodes × 200 000 objects is built without one
    directory lookup."""
    lookups = []
    replicas = BoundHashShard.replicas

    def counted(self, oid):
        lookups.append(oid)
        return replicas(self, oid)

    monkeypatch.setattr(BoundHashShard, "replicas", counted)
    spec = SystemSpec(
        num_nodes=33 if strategy == "two-tier" else 32, db_size=200_000,
        placement=HashShardPlacement(replication_factor=3),
    )
    cls = STRATEGY_CLASSES[strategy]
    system = cls(spec, num_base=32) if strategy == "two-tier" else cls(spec)
    assert lookups == []
    oid = 123_456
    master = system.master_of(oid).node_id
    assert master == system.placement.replicas(oid)[0]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_resident_objects_scale_with_k_over_n(strategy):
    result = run_experiment(_partial_config(strategy))
    resident = result.extra["resident_objects"]
    if strategy == "two-tier":
        # the placement spans the base tier; with the default single base
        # node the factor clamps to 1 and mobiles legitimately hold all
        assert resident["replication_factor"] == 1
        return
    assert resident["replication_factor"] == 3
    assert resident["total"] == 3 * 60
    assert resident["max"] < 60
    assert resident["mean"] == pytest.approx(3 * 60 / 5)


# --------------------------------------------------------------------- #
# convergence and the oracle, per strategy
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_partial_run_converges_and_passes_oracle(strategy):
    result = run_experiment(_partial_config(strategy))
    assert result.metrics.commits > 0
    assert result.divergence == 0
    assert result.extra["oracle_ok"] is True


# --------------------------------------------------------------------- #
# divergence semantics on shards
# --------------------------------------------------------------------- #


def test_dropped_update_to_replica_set_is_flagged():
    """A 3-replica object whose update lands at only 2 replicas diverges."""
    spec = SystemSpec(
        num_nodes=5, db_size=60,
        placement=HashShardPlacement(replication_factor=3),
    )
    system = LazyGroupSystem(spec)
    oid = 17
    replicas = system.placement.replicas(oid)
    assert len(replicas) == 3
    # the update reaches the first two replicas; the third never sees it
    for node_id in replicas[:2]:
        store = system.nodes[node_id].store
        store.write(oid, 123, Timestamp(1, node_id))
    assert system.divergence() == 1
    verdict = evaluate_oracle(system)
    assert not verdict.ok
    assert any("diverged" in failure for failure in verdict.failures)
    # non-replicas holding nothing is not divergence: healing the straggler
    # clears the flag even though the other 2 nodes never store the object
    straggler = replicas[2]
    system.nodes[straggler].store.write(oid, 123, Timestamp(1, straggler))
    assert system.divergence() == 0
    assert evaluate_oracle(system).ok


# --------------------------------------------------------------------- #
# determinism golden for partial runs
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def partial_golden():
    data = load_partial_golden()
    assert data, "tests/data/partial_golden.json is missing or empty"
    return data


@pytest.mark.parametrize("case", partial_case_names())
def test_partial_run_is_reproducible_and_matches_golden(case, partial_golden):
    first = fingerprint_partial(case)
    second = fingerprint_partial(case)
    assert first == second, f"{case}: same-process repeat diverged"
    assert case in partial_golden, (
        f"{case}: no committed golden (run tests.determinism_helpers "
        "--write-partial)"
    )
    assert first == partial_golden[case]


def test_partial_golden_covers_every_case(partial_golden):
    assert sorted(partial_golden) == sorted(partial_case_names())


# --------------------------------------------------------------------- #
# the k = N limit: partial predictions reduce to full replication
# --------------------------------------------------------------------- #


_LIMIT_PARAMS = ModelParameters(
    db_size=500, nodes=6, tps=5.0, actions=4, action_time=0.01,
)


class TestFullReplicationLimit:
    """``hash:k=N`` must be indistinguishable from full replication."""

    def test_structure_reduces_to_eager_equations(self):
        p, n = _LIMIT_PARAMS, _LIMIT_PARAMS.nodes
        assert partial.transaction_size(p, n) == eager.transaction_size(p)
        assert partial.transaction_duration(p, n) == (
            eager.transaction_duration(p)
        )
        assert partial.total_transactions(p, n) == pytest.approx(
            eager.total_transactions(p), rel=1e-12)
        assert partial.action_rate(p, n) == pytest.approx(
            eager.action_rate(p), rel=1e-12)

    def test_danger_rates_reduce_to_eq_10_12_14(self):
        p, n = _LIMIT_PARAMS, _LIMIT_PARAMS.nodes
        assert partial.wait_rate(p, n) == pytest.approx(
            eager.total_wait_rate(p), rel=1e-12)
        assert partial.deadlock_rate(p, n) == pytest.approx(
            eager.total_deadlock_rate(p), rel=1e-12)
        assert partial.reconciliation_rate(p, n) == pytest.approx(
            lazy_group.reconciliation_rate(p), rel=1e-12
        )
        assert partial.softening(p, n) == 1.0

    def test_oversized_k_clamps_to_full_replication(self):
        p, n = _LIMIT_PARAMS, _LIMIT_PARAMS.nodes
        assert partial.deadlock_rate(p, n + 10) == pytest.approx(
            eager.total_deadlock_rate(p), rel=1e-12
        )
        assert partial.resident_objects(p, n + 10) == float(p.db_size)

    @pytest.mark.parametrize("strategy", ("eager-group", "eager-master",
                                          "lazy-group"))
    def test_reference_rate_reduces_at_k_equals_n(self, strategy):
        p, n = _LIMIT_PARAMS, _LIMIT_PARAMS.nodes
        full = {
            "eager-group": eager.total_deadlock_rate(p),
            "eager-master": eager.total_deadlock_rate(p),
            "lazy-group": lazy_group.reconciliation_rate(p),
        }[strategy]
        assert predicted_rate(strategy, p, n)[1] == pytest.approx(
            full, rel=1e-12)


class TestMarkovAgreesWithPartialAtKEqualsN:
    """The Markov chains must honour the same k = N reduction."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_k_equals_n_matches_default_full_replication(self, strategy):
        p, n = _LIMIT_PARAMS, _LIMIT_PARAMS.nodes
        explicit = predicted_rate(strategy, p, n, "markov")[1]
        implicit = predicted_rate(strategy, p, None, "markov")[1]
        assert explicit == implicit

    @pytest.mark.parametrize("strategy", ("eager-group", "lazy-group"))
    def test_low_contention_markov_matches_partial_model(self, strategy):
        # deep in the low-contention regime the congestion fixed point is
        # ~1 and the chain's rate converges to the partial closed form
        p = _LIMIT_PARAMS.with_(db_size=200_000)
        n = p.nodes
        chain_rate = predicted_rate(strategy, p, n, "markov")[1]
        closed = predicted_rate(strategy, p, n)[1]
        assert chain_rate == pytest.approx(closed, rel=1e-3)

    @pytest.mark.parametrize("k", (1, 2, 4))
    def test_partial_softening_tracks_k_over_n(self, k):
        # at fixed nodes the chain inherits the closed forms' k-scaling
        p = _LIMIT_PARAMS.with_(db_size=200_000)
        chain = predicted_rate("lazy-group", p, k, "markov")[1]
        closed = predicted_rate("lazy-group", p, k)[1]
        assert chain == pytest.approx(closed, rel=1e-3)
