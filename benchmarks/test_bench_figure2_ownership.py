"""Figure 2 — object master versus object group ownership.

"Updates may be controlled in two ways. Either all updates emanate from a
master copy of the object, or updates may emanate from any. Group ownership
has many more chances for conflicting updates."

Measured: the same concurrent single-object workload run under group
ownership (lazy-group: concurrent versions race and need reconciliation) and
master ownership (lazy-master: writers serialize at the owner; zero
reconciliations, zero lost updates).
"""

from repro.metrics.report import format_table
from repro.replication import SystemSpec
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.lazy_master import LazyMasterSystem
from repro.txn.ops import IncrementOp

NODES = 4
TRIALS = 25


def run_figure2():
    results = {}
    for name, cls in [("group", LazyGroupSystem), ("master", LazyMasterSystem)]:
        reconciliations = 0
        lost = 0
        for trial in range(TRIALS):
            system = cls(SystemSpec(
                num_nodes=NODES, db_size=3, action_time=0.001,
                message_delay=0.5, seed=trial,
            ))
            # every node updates the same object at the same instant: the
            # maximal conflicting-update opportunity of Figure 2
            for origin in range(NODES):
                system.submit(origin, [IncrementOp(0, 1)])
            system.run()
            assert system.converged()
            reconciliations += system.metrics.reconciliations
            lost += NODES - system.nodes[0].store.value(0)
        results[name] = (reconciliations / TRIALS, lost / TRIALS)
    return results


def test_bench_figure2(benchmark):
    results = benchmark.pedantic(run_figure2, rounds=1, iterations=1)
    print()
    print(format_table(
        ["ownership", "reconciliations per round", "lost updates per round"],
        [(k, *v) for k, v in results.items()],
        title=(
            "Figure 2: 4 nodes update one object simultaneously "
            f"(mean of {TRIALS} rounds)"
        ),
    ))
    group_reconciliations, group_lost = results["group"]
    master_reconciliations, master_lost = results["master"]

    # group ownership: many conflicting updates -> reconciliations and loss
    assert group_reconciliations > 0
    assert group_lost > 0
    # master ownership: writers serialize at the owner -> neither
    assert master_reconciliations == 0
    assert master_lost == 0
