"""Ablation — the reconciliation rule library (Oracle 7's twelve rules, §6).

"Oracle 7 provides a choice of twelve reconciliation rules to merge
conflicting updates... These rules give priority [to] certain sites, or time
priority, or value priority, or they merge commutative updates."

The same racing increment workload runs under each rule; the table shows the
trade each rule makes between convergence, lost updates, and unresolved
conflicts (the manual rule's backlog is the road to system delusion).
"""

import pytest

from repro.faults.oracle import lost_updates
from repro.metrics.report import format_table
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.reconciliation import (
    LatestTimestampWins,
    ManualReconciliation,
    MergeCommutative,
    SitePriorityWins,
    ValuePriorityWins,
)
from repro.txn.ops import IncrementOp
from repro.txn.transaction import TxnState
from repro.replication import SystemSpec

NODES = 3
TRIALS = 20
# node i increments by i+1, so surviving values are distinguishable


def run_rule(rule, propagate_ops=False):
    reconciliations = lost = diverged = 0
    for trial in range(TRIALS):
        system = LazyGroupSystem(
            SystemSpec(num_nodes=NODES, db_size=2, action_time=0.001,
                       message_delay=0.5, seed=trial),
            rule=rule,
            propagate_ops=propagate_ops,
        )
        processes = [system.submit(origin, [IncrementOp(0, origin + 1)])
                     for origin in range(NODES)]
        system.run()
        reconciliations += system.metrics.reconciliations
        diverged += system.divergence()
        if system.divergence() == 0:
            lost += lost_updates(system, [
                p.value for p in processes
                if p.value.state is TxnState.COMMITTED
            ])
    return (reconciliations / TRIALS, lost / TRIALS, diverged / TRIALS)


def simulate():
    return {
        "latest-timestamp": run_rule(LatestTimestampWins()),
        "site-priority": run_rule(SitePriorityWins({0: 10, 1: 5, 2: 1})),
        "value-priority": run_rule(ValuePriorityWins()),
        "merge-commutative": run_rule(MergeCommutative(), propagate_ops=True),
        "manual (defer)": run_rule(ManualReconciliation()),
    }


def test_bench_reconciliation_rules(benchmark):
    results = benchmark.pedantic(simulate, rounds=1, iterations=1)
    print()
    print(format_table(
        ["rule", "reconciliations/round", "updates lost/round",
         "diverged objects/round"],
        [(name, *vals) for name, vals in results.items()],
        title=(
            f"Reconciliation rules on {NODES} racing increments "
            f"(mean of {TRIALS} rounds)"
        ),
    ))

    # every rule detects the same conflicts
    for name, (reconciliations, _, _) in results.items():
        assert reconciliations > 0, name

    # timestamp / site / value priority converge but lose updates
    for name in ["latest-timestamp", "site-priority", "value-priority"]:
        _, lost, diverged = results[name]
        assert diverged == 0, name
        assert lost > 0, name

    # the commutative merge keeps everything
    _, lost, diverged = results["merge-commutative"]
    assert lost == 0
    assert diverged == 0

    # the manual rule leaves the system diverged: unresolved conflicts
    _, _, diverged = results["manual (defer)"]
    assert diverged > 0
