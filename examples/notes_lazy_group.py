#!/usr/bin/env python3
"""A Lotus-Notes-style shared notebook on lazy-group replication (§6).

"Lotus Notes gives a good example of convergence... Notes provides
convergence rather than an ACID transaction execution model. The database
state may not reflect any particular serial execution, but all the states
will be identical."

Three editors share a notebook; alice is cut off for the first 20 s.
Lazy-group ships each op and merges the commutative ones:

* **appends** (discussion comments) — everyone's comments survive;
* **blind replaces** (the title) — time priority: the replicas converge,
  but concurrent renames lose all but one edit;
* **commutative increments** (a vote counter) — every vote counts.

Run::

    python examples/notes_lazy_group.py
"""

from repro.faults import FaultInjector, FaultPlan, Partition, evaluate
from repro.faults.oracle import lost_updates
from repro.replication import LazyGroupSystem, SystemSpec
from repro.replication.reconciliation import MergeCommutative
from repro.txn.ops import AppendOp, IncrementOp, WriteOp

TITLE, COMMENTS, VOTES = 0, 1, 2
EDITORS = ["alice", "bob", "carol"]


def main() -> None:
    system = LazyGroupSystem(
        SystemSpec(num_nodes=len(EDITORS), db_size=3, message_delay=0.5),
        rule=MergeCommutative(), propagate_ops=True,
    )
    plan = FaultPlan(partitions=(Partition(0.0, 20.0, (0,), (1, 2)),))
    FaultInjector(system, plan).install()
    renames, kept = [], []

    def editing_session(node: int, name: str):
        def edit(op):
            kept.append(system.submit(node, [op]))
        yield system.engine.timeout(1.0 + node)
        edit(AppendOp(COMMENTS, f"{name}: looks good"))
        edit(IncrementOp(VOTES, 1))
        yield system.engine.timeout(2.0)
        # everyone renames the document at nearly the same time
        renames.append((name, system.submit(
            node, [WriteOp(TITLE, f"Design doc (edited by {name})")])))
        yield system.engine.timeout(3.0)
        edit(AppendOp(COMMENTS, f"{name}: replied"))
        edit(IncrementOp(VOTES, 1))

    for node, name in enumerate(EDITORS):
        system.engine.process(editing_session(node, name))
    system.run()

    final, verdict = system.snapshot(), evaluate(system, plan)
    print("After the editing session and the partition healing:\n")
    print(f"  converged: {system.converged()} ({verdict.describe()})")
    print(f"\n  TITLE (blind replace, time priority): {final[TITLE]!r}")
    print("    renames lost (the lost-update problem):")
    for name, proc in renames:
        if proc.value.updates[0].new_value != final[TITLE]:
            print(f"      {name}'s rename was overwritten")
    print("\n  COMMENTS (append) — nothing lost:")
    for comment in final[COMMENTS]:
        print(f"      {comment}")
    print(f"\n  VOTES (commutative increment): {final[VOTES]} "
          f"of {2 * len(EDITORS)} cast — all counted")

    assert verdict.ok  # converged, quiescent, accounting
    assert lost_updates(system, [proc.value for proc in kept]) == 0
    assert len(final[COMMENTS]) == final[VOTES] == 2 * len(EDITORS)


if __name__ == "__main__":
    main()
