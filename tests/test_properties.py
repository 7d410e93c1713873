"""System-level property-based tests (hypothesis).

Randomized workloads over randomized topologies, checking the invariants the
paper's argument rests on:

* serializable strategies (eager, lazy-master) conserve increments exactly;
* lazy-master and lazy-group (timestamp rule) always converge after drain;
* across a healing partition lazy-group converges either way, but only
  shipped, merged commutative ops lose no update (section 6);
* the two-tier base tier never diverges, whatever the mobiles do;
* deadlock handling never leaks locks or undo records.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AlwaysAccept, NonNegativeOutputs, TwoTierSystem
from repro.faults.injector import FaultInjector
from repro.faults.oracle import evaluate, lost_updates
from repro.faults.plan import FaultPlan, Partition
from repro.replication.eager_group import EagerGroupSystem
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.lazy_master import LazyMasterSystem
from repro.replication.reconciliation import (
    LatestTimestampWins,
    MergeCommutative,
)
from repro.txn.ops import AppendOp, IncrementOp, WriteOp
from repro.txn.transaction import TxnState
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import uniform_update_profile
from repro.replication import SystemSpec

# simulation-heavy properties: keep example counts modest
SIM_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

topology = st.tuples(
    st.integers(2, 4),    # nodes
    st.integers(5, 30),   # db size
    st.integers(0, 2**16),  # seed
)


@SIM_SETTINGS
@given(topology, st.integers(1, 12))
def test_eager_group_conserves_increments(topo, txns):
    nodes, db, seed = topo
    system = EagerGroupSystem(
        SystemSpec(num_nodes=nodes, db_size=db, action_time=0.001, seed=seed,
                   retry_deadlocks=True),
    )
    processes = []
    for i in range(txns):
        origin = i % nodes
        oid = (seed + i * 7) % db
        processes.append(system.submit(origin, [IncrementOp(oid, 1)]))
    system.run()
    committed = [p.value for p in processes
                 if p.value.state is TxnState.COMMITTED]
    assert lost_updates(system, committed) == 0
    assert system.converged()


@SIM_SETTINGS
@given(topology, st.integers(1, 10))
def test_lazy_master_conserves_and_converges(topo, tps):
    nodes, db, seed = topo
    system = LazyMasterSystem(
        SystemSpec(num_nodes=nodes, db_size=db, action_time=0.001, seed=seed,
                   retry_deadlocks=True),
    )
    workload = WorkloadGenerator(
        system,
        uniform_update_profile(actions=min(2, db), db_size=db,
                               commutative=True),
        tps=float(tps),
    )
    workload.start(duration=10.0)
    system.run()
    assert system.converged()
    # increments drawn from {1,2,5,-1,-2}: conservation means node sums match
    # across replicas (already implied by convergence) and no undo leaked
    for node in system.nodes:
        node.tm.assert_quiescent()


@SIM_SETTINGS
@given(topology)
def test_lazy_group_timestamp_rule_always_converges(topo):
    nodes, db, seed = topo
    system = LazyGroupSystem(
        SystemSpec(num_nodes=nodes, db_size=db, action_time=0.001,
                   message_delay=0.5, seed=seed),
    )
    workload = WorkloadGenerator(
        system, uniform_update_profile(actions=min(2, db), db_size=db),
        tps=3.0,
    )
    workload.start(duration=10.0)
    system.run()
    assert system.converged()
    for node in system.nodes:
        node.tm.assert_quiescent()


#: objects in the partition scripts: even oids take increments, odd appends
SCRIPT_DB = 4


@st.composite
def healing_partition_scripts(draw):
    """2-4 lazy-group nodes, one or two partitions that heal, and one
    script of ``(gap, oid, amount)`` steps per node."""
    nodes = draw(st.integers(2, 4))
    partitions = []
    for _ in range(draw(st.integers(1, 2))):
        left = draw(st.sets(st.integers(0, nodes - 1),
                            min_size=1, max_size=nodes - 1))
        partitions.append(Partition(
            start=draw(st.integers(0, 30)) / 10,
            duration=draw(st.integers(1, 150)) / 10,
            left=tuple(sorted(left)),
            right=tuple(n for n in range(nodes) if n not in left),
        ))
    step = st.tuples(st.integers(0, 30), st.integers(0, SCRIPT_DB - 1),
                     st.integers(1, 5))
    scripts = [draw(st.lists(step, max_size=6)) for _ in range(nodes)]
    return nodes, FaultPlan(partitions=tuple(partitions)), scripts


def run_scripts(nodes, plan, scripts, rule, propagate_ops):
    """Drive every node's script across the plan; check the run converged
    and was judged ok; return the system and its committed txns."""
    system = LazyGroupSystem(
        SystemSpec(num_nodes=nodes, db_size=SCRIPT_DB, action_time=0.001,
                   message_delay=0.05),
        rule=rule, propagate_ops=propagate_ops,
    )
    FaultInjector(system, plan).install()
    processes = []

    def script(node, steps):
        for index, (gap, oid, amount) in enumerate(steps):
            yield system.engine.timeout(gap / 10)
            op = (IncrementOp(oid, amount) if oid % 2 == 0
                  else AppendOp(oid, (node, index, amount)))
            processes.append(system.submit(node, [op]))

    for node, steps in enumerate(scripts):
        system.engine.process(script(node, steps))
    system.run()
    assert system.converged()
    verdict = evaluate(system, plan)
    assert verdict.ok, verdict.describe()
    return system, [p.value for p in processes
                    if p.value.state is TxnState.COMMITTED]


@SIM_SETTINGS
@given(healing_partition_scripts())
def test_lazy_group_loses_updates_only_when_shipping_values(case):
    """Section 6 in the simulator: across a healing partition both forms
    converge; shipped, merged commutative ops lose nothing, while value
    shipping under time priority may lose up to everything committed."""
    nodes, plan, scripts = case
    system, committed = run_scripts(nodes, plan, scripts,
                                    MergeCommutative(), propagate_ops=True)
    assert lost_updates(system, committed) == 0

    system, committed = run_scripts(nodes, plan, scripts,
                                    LatestTimestampWins(), propagate_ops=False)
    total = sum(
        update.op.delta if isinstance(update.op, IncrementOp) else 1
        for txn in committed for update in txn.updates
    )
    assert 0 <= lost_updates(system, committed) <= total


@SIM_SETTINGS
@given(
    st.integers(1, 3),   # base nodes
    st.integers(1, 3),   # mobiles
    st.integers(5, 20),  # db
    st.integers(0, 2**16),
    st.lists(st.integers(-60, 60).filter(lambda d: d != 0), min_size=1,
             max_size=10),
)
def test_two_tier_base_never_diverges(num_base, num_mobile, db, seed, deltas):
    system = TwoTierSystem(
        SystemSpec(num_nodes=num_base + num_mobile, db_size=db,
                   action_time=0.001, seed=seed, initial_value=100),
        num_base=num_base,
    )
    mobile_ids = list(system.mobiles)
    for mid in mobile_ids:
        system.disconnect_mobile(mid)
    for i, delta in enumerate(deltas):
        mobile = system.mobiles[mobile_ids[i % len(mobile_ids)]]
        mobile.submit_tentative(
            [IncrementOp((seed + i) % db, delta)], NonNegativeOutputs()
        )
    system.run()
    for mid in mobile_ids:
        system.reconnect_mobile(mid)
    system.run()
    assert system.base_divergence() == 0
    assert system.divergence() == 0  # after full drain, mobiles match too
    accepted = system.metrics.tentative_accepted
    rejected = system.metrics.tentative_rejected
    assert accepted + rejected == len(deltas)
    # no base value may be negative: the acceptance criterion guarded them
    assert all(v >= 0 for v in system.nodes[0].store.snapshot().values())


@SIM_SETTINGS
@given(topology)
def test_deterministic_replay(topo):
    """Identical seeds must give bit-identical metrics and state."""
    nodes, db, seed = topo

    def run():
        system = LazyGroupSystem(
            SystemSpec(num_nodes=nodes, db_size=db, action_time=0.002,
                       message_delay=0.3, seed=seed),
        )
        workload = WorkloadGenerator(
            system, uniform_update_profile(actions=min(2, db), db_size=db),
            tps=4.0,
        )
        workload.start(duration=8.0)
        system.run()
        return system.metrics.as_dict(), system.snapshot()

    assert run() == run()


@SIM_SETTINGS
@given(st.integers(2, 4), st.integers(0, 2**16))
def test_opposite_lock_orders_always_resolve(nodes, seed):
    """Adversarial deadlock workload: every transaction pair takes opposite
    lock orders; the system must always terminate with consistent state."""
    system = EagerGroupSystem(
        SystemSpec(num_nodes=nodes, db_size=4, action_time=0.002, seed=seed),
    )
    for origin in range(nodes):
        system.submit(origin, [WriteOp(0, origin), WriteOp(1, origin)])
        system.submit(origin, [WriteOp(1, origin), WriteOp(0, origin)])
    system.run()
    assert system.metrics.commits + system.metrics.aborts == 2 * nodes
    assert system.converged()
    for node in system.nodes:
        node.tm.assert_quiescent()
