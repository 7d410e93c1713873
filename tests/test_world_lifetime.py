"""A drained world frees itself.

No part of the simulator points back at the system strongly: the pipeline
holds the class's phase functions, the lock hooks and telemetry probes
close over the metrics and the tracer, and the network handlers, the fault
injector and two-tier's mobiles reach the system through one weak proxy.
A deadlock victim drops its traceback where it is caught.  So once the
engine has drained and every transaction has finished, dropping the last
outside reference frees the system, its stores and their records at once,
by reference counting.  Each test runs with the cyclic collector off, so a
world that only the collector could free shows up as a live weakref.
"""

import gc
import weakref

import pytest

from repro.analytic.parameters import ModelParameters
from repro.faults.plan import FaultPlan
from repro.harness.experiment import ExperimentConfig, build_system, run_experiment
from repro.harness.strategies import STRATEGIES
from repro.placement import Placement
from repro.sim.tracing import Tracer
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import uniform_update_profile

PARAMS = ModelParameters(
    db_size=40, nodes=4, tps=6, actions=3,
    action_time=0.01, message_delay=0.005,
)
DURATION = 4.0
FAULTS = "drop=0.05,partition=1,crash=1"


@pytest.fixture
def no_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _world_refs(system):
    return weakref.ref(system), weakref.ref(system.nodes[0].store)


def _assert_freed(refs):
    system, store = refs
    assert system() is None, "the system outlived its last reference"
    assert store() is None, "a store outlived its system"


def _node_count(strategy: str) -> int:
    # two-tier runs PARAMS.nodes mobiles beside one base node
    return PARAMS.nodes + (1 if strategy == "two-tier" else 0)


def _variant(strategy: str, variant: str) -> dict:
    if variant in ("hash:k=2", "dir:k=2"):
        return {"placement": Placement.from_spec(variant)}
    if variant == "faults":
        spec = FAULTS
        if strategy == "deferred-update":
            # a dropped certification request leaves its origin waiting
            # forever: that world never drains (see the test below)
            spec = "partition=1,crash=1"
        return {"faults": FaultPlan.from_spec(
            spec, _node_count(strategy), DURATION
        )}
    if variant == "telemetry":
        return {"sample_interval": 0.5}
    if variant == "history":
        return {"record_history": True}
    if variant == "tracer":
        return {"tracer": Tracer()}
    return {}


VARIANTS = ("full", "hash:k=2", "dir:k=2", "faults", "telemetry", "history",
            "tracer")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_drained_world_frees_itself(no_collector, strategy, variant):
    result = run_experiment(ExperimentConfig(
        strategy, PARAMS, duration=DURATION, seed=1,
        **_variant(strategy, variant),
    ))
    assert result.extra["oracle_ok"]
    refs = _world_refs(result.system)
    del result
    _assert_freed(refs)


def test_deadlock_victims_do_not_keep_their_world(no_collector):
    # the des_eager_hot shape: every victim's DeadlockAbort once held the
    # frame that waited on its failed lock event, and through it the system
    params = ModelParameters(
        db_size=100, nodes=3, tps=40, actions=4,
        action_time=0.002, message_delay=0.001,
    )
    result = run_experiment(
        ExperimentConfig("eager-group", params, duration=5.0, seed=1)
    )
    assert result.metrics.deadlocks > 0
    refs = _world_refs(result.system)
    del result
    _assert_freed(refs)


def test_a_world_with_a_completed_migration_frees_itself(no_collector):
    system = build_system(ExperimentConfig(
        "lazy-master", PARAMS, seed=1, placement=Placement.from_spec("dir:k=2"),
    ))
    WorkloadGenerator(
        system, uniform_update_profile(PARAMS.actions, PARAMS.db_size),
        tps=PARAMS.tps,
    ).start(DURATION)
    system.run(until=1.0)
    oid = 5
    src = system.placement.replicas(oid)[-1]
    dst = next(
        n for n in range(system.num_nodes)
        if n not in system.placement.replicas(oid)
    )
    move = system.migrate(oid, src, dst)
    system.run()
    assert system.metrics.extra["migrations"] == 1
    assert move.value.state.value == "committed"
    refs = _world_refs(system)
    del system, move
    _assert_freed(refs)


def test_a_transaction_waiting_forever_keeps_its_world(no_collector):
    """The documented exception: a world is drained only when every
    transaction finished.  Under message drops a deferred-update origin
    whose certification request or decision was lost waits for ever, and
    its parked process holds the system, so only the collector frees it.
    """
    faults = FaultPlan.from_spec("drop=0.1", PARAMS.nodes, DURATION)
    result = run_experiment(ExperimentConfig(
        "deferred-update", PARAMS, duration=DURATION, seed=1, faults=faults,
    ))
    system = result.system
    assert system.engine.peek() is None  # the engine has drained
    assert any(system._live_processes.values())  # but an origin still waits
    refs = _world_refs(system)
    del system, result
    assert refs[0]() is not None
    gc.collect()
    _assert_freed(refs)
