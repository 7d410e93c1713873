"""X2 — the lost-update problem (section 6).

"If convergence were the only goal, the timestamp method would be
sufficient. But the timestamp scheme may lose the effects of some
transactions ... Timestamp schemes are vulnerable to lost updates."

Measured in the simulator on lazy-group: K replicas each commit a known
number of read-modify-write updates to the same objects while every pair
of nodes is cut off, then the partition heals and the queued replica
updates reconcile (Figure 4).

* timestamped replace (value shipping, latest timestamp wins) —
  converges, loses (K-1)/K of the updates;
* commutative increment (the paper's proposed third form: ship the op,
  merge it) — converges, loses nothing;
* timestamped append under the same merge — converges, keeps every note.
"""

from repro.faults.injector import FaultInjector
from repro.faults.oracle import evaluate, lost_updates
from repro.faults.plan import FaultPlan, Partition
from repro.metrics.report import format_table
from repro.replication import LazyGroupSystem, SystemSpec
from repro.replication.reconciliation import (
    LatestTimestampWins,
    MergeCommutative,
)
from repro.txn.ops import AppendOp, IncrementOp
from repro.txn.transaction import TxnState

REPLICAS = 4
OBJECTS = 10
UPDATES_PER_REPLICA = 5
HEAL_AT = 10.0
#: every pair of nodes cut for the first HEAL_AT seconds: node i from
#: every higher-numbered node
ISOLATED = FaultPlan(partitions=tuple(
    Partition(0.0, HEAL_AT, (node,), tuple(range(node + 1, REPLICAS)))
    for node in range(REPLICAS - 1)
))


def run_row(propagate_ops, rule, make_op):
    system = LazyGroupSystem(
        SystemSpec(num_nodes=REPLICAS, db_size=OBJECTS, action_time=0.001),
        rule=rule,
        propagate_ops=propagate_ops,
    )
    FaultInjector(system, ISOLATED).install()
    processes = [
        system.submit(node, [make_op(node, oid, step)])
        for node in range(REPLICAS)
        for oid in range(OBJECTS)
        for step in range(UPDATES_PER_REPLICA)
    ]
    system.run()
    committed = [p.value for p in processes
                 if p.value.state is TxnState.COMMITTED]
    return {
        "committed": len(committed),
        "reconciliations": system.metrics.reconciliations,
        "diverged": system.divergence(),
        "ok": evaluate(system, ISOLATED).ok,
        "lost": lost_updates(system, committed),
    }


def run_lost_updates():
    return {
        "timestamped replace": run_row(
            False, LatestTimestampWins(),
            lambda node, oid, step: IncrementOp(oid, 1),
        ),
        "commutative increment": run_row(
            True, MergeCommutative(),
            lambda node, oid, step: IncrementOp(oid, 1),
        ),
        "timestamped append": run_row(
            True, MergeCommutative(),
            lambda node, oid, step: AppendOp(oid, f"note-{node}-{step}"),
        ),
    }


def test_bench_lost_updates(benchmark):
    rows = benchmark.pedantic(run_lost_updates, rounds=1, iterations=1)

    print()
    print(format_table(
        ["update form", "committed", "reconciliations", "converged?",
         "judged ok?", "updates lost"],
        [
            (form, r["committed"], r["reconciliations"], r["diverged"] == 0,
             r["ok"], r["lost"])
            for form, r in rows.items()
        ],
        title=(
            f"X2: {REPLICAS} replicas x {UPDATES_PER_REPLICA} updates on "
            f"{OBJECTS} objects, isolated for {HEAL_AT:g} s then healed"
        ),
    ))

    # all three forms converge and pass the one judge — that is the whole
    # point of the schemes
    total = REPLICAS * OBJECTS * UPDATES_PER_REPLICA
    for form, r in rows.items():
        assert r["committed"] == total, form
        assert r["reconciliations"] > 0, form
        assert r["diverged"] == 0, form
        assert r["ok"], form

    # but replace keeps one replica's updates per object and loses the
    # other (K-1)/K, while the commutative forms keep everything
    assert rows["timestamped replace"]["lost"] * REPLICAS == (
        total * (REPLICAS - 1)
    )
    assert rows["commutative increment"]["lost"] == 0
    assert rows["timestamped append"]["lost"] == 0
