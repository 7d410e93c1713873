#!/usr/bin/env python3
"""Hunting concurrency anomalies with the schedule verifier.

The paper's claims about *which* schedules each replication strategy can
produce are checkable facts: this example records the full execution history
of a contended read-modify-write workload under each strategy and runs the
one-copy conflict-serializability verifier over it.

* Eager (group and master) and lazy-master: every recorded schedule is
  serializable — "there are no concurrency anomalies".
* Lazy-group: the verifier finds a precedence *cycle* — two replicas ordered
  the same pair of transactions in opposite directions — and prints the
  cycle as a concrete witness, even though the replicas still converged.

Run::

    python examples/anomaly_hunt.py
"""

from repro.replication import SystemSpec
from repro.replication.eager_group import EagerGroupSystem
from repro.replication.eager_master import EagerMasterSystem
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.lazy_master import LazyMasterSystem
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import uniform_update_profile

STRATEGIES = [
    ("eager-group", EagerGroupSystem, {}),
    ("eager-master", EagerMasterSystem, {}),
    ("lazy-master", LazyMasterSystem, {}),
    ("lazy-group", LazyGroupSystem, {"message_delay": 0.5}),
]


def hunt(name: str, cls, extra: dict) -> None:
    system = cls(SystemSpec(num_nodes=3, db_size=8, action_time=0.002, seed=11,
                            record_history=True, retry_deadlocks=True, **extra))
    workload = WorkloadGenerator(
        system,
        uniform_update_profile(actions=2, db_size=8, commutative=True),
        tps=3.0,
    )
    workload.start(duration=30.0)
    system.run()

    history = system.history
    graph = history.conflict_graph()
    committed = len(history.committed_ids)
    print(f"{name:>13}: {committed} committed txns, "
          f"{len(history)} recorded accesses, "
          f"{graph.edge_count()} conflict edges")

    cycle = graph.find_cycle()
    if cycle is None:
        order = graph.serial_order()
        print(f"               serializable ✓  (equivalent serial order "
              f"starts {order[:5]}...)")
    else:
        print(f"               NOT serializable ✗  precedence cycle: "
              f"{' -> '.join(map(str, cycle))} -> {cycle[0]}")
        # show the raw evidence for the first edge of the cycle
        first, second = cycle[0], cycle[1] if len(cycle) > 1 else cycle[0]
        witnesses = [
            e for e in history.committed_events()
            if e.txn_id in (first, second)
        ][:8]
        for event in witnesses:
            print(f"                 node {event.node_id}: "
                  f"{event.kind}{event.txn_id}(obj {event.oid})")
    print(f"               replicas diverged: {system.divergence()} "
          f"(convergence ≠ serializability)")
    print()


if __name__ == "__main__":
    print("Recording execution histories under identical contended load...\n")
    for name, cls, extra in STRATEGIES:
        hunt(name, cls, extra)
    print("Conclusion (paper §1): eager and master schemes serialize; ")
    print("update-anywhere lazy replication converges to a state that no")
    print("serial execution could have produced — the anomaly the paper's")
    print("reconciliation machinery exists to contain.")
