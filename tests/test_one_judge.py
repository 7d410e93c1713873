"""One judge, declared by the strategy.

Every strategy class declares the guarantee it offers (``guarantee``) and
``faults.oracle.evaluate`` judges it: a ``"serializable"`` strategy's
recorded history must have no precedence cycle, a ``"convergent"`` one's
cycle is only an anomaly witness.  Here the declaration is checked over
the registry, the verdict is driven across strategy × placement × benign
fault plan × a live migration, and hand-made mutants — a corrupted base
store, a forced cycle, a lossy plan — must each get the verdict they earn.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import ModelParameters
from repro.faults import FaultPlan
from repro.faults.oracle import evaluate
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.experiment import STRATEGIES, STRATEGY_CLASSES, build_system
from repro.placement import Placement
from repro.storage.versioning import ZERO, stamp
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import uniform_update_profile

#: the two levels the conflict-graph judge can tell apart
GUARANTEES = ("serializable", "convergent")

PARAMS = ModelParameters(
    db_size=30, nodes=4, tps=12, actions=2, action_time=0.002,
    message_delay=0.002,
)
DURATION = 4.0
#: faults that lose no information: the judge excuses nothing under them
BENIGN_PLANS = (None, "dup=0.3", "jitter=0.01", "partition=0.5", "crash=0.5")


def test_every_strategy_declares_a_checkable_guarantee():
    declared = {
        name: cls.guarantee for name, cls in STRATEGY_CLASSES.items()
    }
    assert set(declared.values()) <= set(GUARANTEES)
    # convergence is not serializability: only update-anywhere lazy
    # replication gives up the serializable schedule
    assert [name for name, level in declared.items()
            if level == "convergent"] == ["lazy-group"]


def build(strategy, placement="full", plan_spec=None, seed=1):
    """A ``record_history`` system of ``strategy`` with its workload and
    executed plan started; the caller drives it."""
    two_tier = strategy == "two-tier"
    plan = None
    if plan_spec is not None:
        plan = FaultPlan.from_spec(
            plan_spec, num_nodes=PARAMS.nodes + (1 if two_tier else 0),
            duration=DURATION,
        )
    system = build_system(ExperimentConfig(
        strategy=strategy,
        # two-tier: two mobiles submitting to a three-node base tier
        params=PARAMS.with_(nodes=2) if two_tier else PARAMS,
        duration=DURATION,
        seed=seed,
        num_base=3 if two_tier else 1,
        record_history=True,
        placement=Placement.from_spec(placement),
        faults=plan,
    ))
    profile = uniform_update_profile(
        actions=PARAMS.actions, db_size=PARAMS.db_size, commutative=two_tier
    )
    WorkloadGenerator(
        system, profile, tps=PARAMS.tps,
        node_ids=list(system.mobiles) if two_tier else None,
    ).start(DURATION)
    return system, plan


def migrate_one(system, oid):
    """Move ``oid``'s last replica to a node holding none, if both ends
    are up; a transaction may hold or await a lock on it."""
    replicas = system.placement.replicas(oid)
    src = replicas[-1]
    dst = next(
        n for n in range(system.placement.num_nodes) if n not in replicas
    )
    if src not in system.crashed and dst not in system.crashed:
        system.migrate(oid, src, dst)


@settings(max_examples=100, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    placement=st.sampled_from(["full", "hash:k=2", "dir:k=2"]),
    plan_spec=st.sampled_from(BENIGN_PLANS),
    migrate=st.booleans(),
    seed=st.integers(0, 3),
)
def test_the_verdict_matches_the_declaration(
    strategy, placement, plan_spec, migrate, seed
):
    system, plan = build(strategy, placement, plan_spec, seed)
    if migrate and placement.startswith("dir"):
        system.run(until=DURATION / 2)
        migrate_one(system, oid=seed * 7 % PARAMS.db_size)
    system.run()
    verdict = evaluate(system, plan)
    assert verdict.ok, verdict.describe()
    assert verdict.expected_convergence and verdict.diverged == 0
    assert ("serializable" in verdict.checked) == (
        system.guarantee == "serializable"
    )
    assert len(system.history.committed_ids) > 0


@pytest.mark.parametrize("strategy, seed, oid", [
    # a writer holds the source copy when the move is issued
    ("eager-group", 3, 21),
    ("eager-master", 0, 5),
    ("eager-master", 3, 21),
    ("deferred-update", 1, 10),
    # an eager writer holds the master copy and reaches the source after
    # the move: it finds no record there and aborts as "migrated"
    ("eager-group", 3, 3),
    ("eager-master", 3, 3),
    # a base copy under two-tier
    ("two-tier", 0, 17),
    ("two-tier", 1, 18),
])
def test_a_migration_of_a_locked_object_passes_the_judge(strategy, seed, oid):
    system, _ = build(strategy, "dir:k=2", None, seed)
    system.run(until=DURATION / 2)
    assert not all(node.locks.is_free(oid) for node in system.nodes)
    migrate_one(system, oid)
    system.run()
    verdict = evaluate(system)
    assert verdict.ok, verdict.describe()
    assert system.metrics.as_dict()["migrations"] == 1


def test_a_refresh_attempt_undone_by_a_deadlock_is_not_a_write():
    """A crashed mobile's parked refreshes replay at recovery, two of them
    deadlock, and the victim's first attempt is undone before its retry
    lands.  The undone attempt must not stand in the history: counted, it
    ordered the two roots both ways — a cycle in a serializable system."""
    system, plan = build("two-tier", "full", "crash=0.5", seed=3)
    system.run()
    assert system.metrics.restarts == 1
    undone = [
        event for event in system.history.events
        if event.via is not None and event not in
        system.history.committed_events()
    ]
    assert len(undone) == 1
    verdict = evaluate(system, plan)
    assert verdict.ok and "serializable" in verdict.checked


# --------------------------------------------------------------------- #
# mutants the judge must catch
# --------------------------------------------------------------------- #


def test_a_base_store_corrupted_after_the_drain_fails_the_verdict():
    for strategy in ("eager-group", "two-tier"):
        system, _ = build(strategy)
        system.run()
        assert evaluate(system).ok
        base = system.base_ids[-1] if system.base_ids else 0
        system.nodes[base].store.write(0, 987_654, stamp(10**6, base))
        verdict = evaluate(system)
        assert not verdict.ok
        assert verdict.diverged == 1
        assert "1 objects diverged" in verdict.failures[0]


def test_a_forced_cycle_fails_a_serializable_strategy_only():
    for strategy in STRATEGIES:
        system, _ = build(strategy)
        system.run()
        # two committed transactions that each precede the other
        history = system.history
        first, second = sorted(history.committed_ids)[:2]
        for txn in (first, second, first):
            history.record_write(0, txn, PARAMS.db_size - 1)
        verdict = evaluate(system)
        assert verdict.witness is not None
        serializable = system.guarantee == "serializable"
        assert verdict.ok is not serializable, verdict.describe()
        if serializable:
            assert "precedence cycle" in verdict.failures[0]


def test_a_lossy_plan_excuses_divergence_and_nothing_else():
    system, plan = build("lazy-master", plan_spec="drop=0.3")
    system.run()
    system.nodes[1].store.write(0, 987_654, stamp(10**6, 1))
    verdict = evaluate(system, plan)
    assert not verdict.expected_convergence
    assert verdict.ok and verdict.diverged is None
    assert "converged" not in verdict.checked
    # the same corruption without the plan's excuse is a failure
    assert not evaluate(system).ok
    # and quiescence is never excused
    txn = system.nodes[0].tm.begin()
    system.nodes[0].wal.record(
        txn.txn_id, 1, 0, ZERO, 1, stamp(1, 0)
    )
    assert not evaluate(system, plan).quiescent


def test_run_experiment_judges_every_declared_serializable_strategy():
    """``record_history`` is enough: deferred-update and SCAR, once left
    out of a hand-kept list, are now judged serializable too."""
    for strategy in STRATEGIES:
        result = run_experiment(ExperimentConfig(
            strategy=strategy, params=PARAMS, duration=DURATION, seed=2,
            record_history=True,
        ))
        assert result.extra["oracle_ok"] is True, (
            strategy, result.extra["oracle_failures"]
        )
        checked = evaluate(result.system).checked
        assert ("serializable" in checked) == (strategy != "lazy-group")
