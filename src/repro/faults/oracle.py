"""The one judge: every finished run, simulated or served, gets one verdict.

Each strategy declares the guarantee it offers as a class attribute
(:attr:`~repro.replication.base.ReplicatedSystem.guarantee`):
``"serializable"`` — one-copy serializable base state (every strategy but
one; two-tier is judged on its base tier) — or ``"convergent"`` — replicas
agree once quiesced, but the schedule may not serialize (lazy-group, the
paper's section 6).  :func:`evaluate` judges a drained system against that
declaration and the executed fault plan:

* **quiescent** — no node holds a lock or pending undo;
* **accounting** — the counters close (every deadlock victim waited first,
  no tentative transaction adjudicated twice, nothing negative);
* **recovered** — when every planned crash recovers, no node is still down;
* **converged** — ``base_divergence()`` is zero: every replica for a flat
  system, the base tier for two-tier (mobiles are legitimately stale while
  dark; the master tier diverging is the paper's system delusion).
  Message **drops** and nodes that never come back destroy information the
  strategy never sees, so they excuse divergence; duplicates, reordering,
  jitter, healed partitions and recovered crashes do not, and a partition
  that **never heals** is not excused either — that is exactly the
  delusion this check exists to flag;
* **serializable** — with a recorded history (``record_history=True``),
  the committed schedule's precedence graph is acyclic.  It is a failure
  only for a ``"serializable"`` strategy; a convergent strategy's cycle is
  kept as an anomaly witness.

The verdict is attached to every experiment as ``oracle_ok``, printed by
``repro verify``, and carried in the gateway's ``drained`` frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import InvalidStateError
from repro.faults.plan import FaultPlan


@dataclass
class OracleVerdict:
    """The judgement of one finished run.

    Attributes:
        expected_convergence: whether replica convergence was required
            (False under lossy plans, where divergence is legitimate).
        failures: human-readable violations of every check, in one list.
        checked: names of the checks that ran.
        diverged: what the convergence check counted
            (``base_divergence()``); None when convergence was not required
            and no audit ran.
        quiescent: no node held a lock or pending undo.
        witness: a precedence cycle among committed transactions, when a
            recorded history has one — a failure for a serializable
            strategy, the expected anomaly for a convergent one.
    """

    expected_convergence: bool
    failures: List[str] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)
    diverged: Optional[int] = None
    quiescent: bool = True
    witness: Optional[List[int]] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.ok:
            return f"oracle ok ({', '.join(self.checked)})"
        return "oracle failures:\n" + "\n".join(
            f"  - {failure}" for failure in self.failures
        )


def evaluate(system, plan: Optional[FaultPlan] = None) -> OracleVerdict:
    """Judge a drained system against its declared guarantee and the
    executed fault plan (None means fault-free)."""
    verdict = OracleVerdict(expected_convergence=plan is None or (
        plan.link.drop == 0.0 and all(c.recovers for c in plan.crashes)
    ))
    failures, checked = verdict.failures, verdict.checked

    checked.append("quiescent")
    for node in system.nodes:
        try:
            node.tm.assert_quiescent()
        except InvalidStateError as exc:
            verdict.quiescent = False
            failures.append(f"node {node.node_id}: {exc}")

    checked.append("accounting")
    m = system.metrics
    if m.deadlocks > m.waits:
        failures.append(
            f"more deadlocks ({m.deadlocks}) than waits ({m.waits}) — every "
            "deadlock victim must first have waited"
        )
    adjudicated = m.tentative_accepted + m.tentative_rejected
    if adjudicated > m.tentative_committed:
        failures.append(
            f"adjudicated tentative txns ({adjudicated}) exceed committed "
            f"({m.tentative_committed})"
        )
    for name, value in m.as_dict().items():
        if isinstance(value, (int, float)) and value < 0:
            failures.append(f"counter {name} went negative: {value}")

    if plan is not None and plan.crashes and all(
        c.recovers for c in plan.crashes
    ):
        checked.append("recovered")
        if system.crashed:
            failures.append(
                f"nodes still crashed at end of run: {sorted(system.crashed)}"
            )

    if verdict.expected_convergence:
        checked.append("converged")
        verdict.diverged = system.base_divergence()
        if verdict.diverged:
            failures.append(
                f"{verdict.diverged} objects diverged; first few: "
                f"{divergence_report(system, 5, system.base_ids)}"
            )

    if system.history is not None:
        verdict.witness = system.history.conflict_graph().find_cycle()
        if system.guarantee == "serializable":
            checked.append("serializable")
            if verdict.witness is not None:
                failures.append(
                    "precedence cycle among committed transactions: "
                    + " -> ".join(map(str, verdict.witness))
                )
    return verdict


def divergence_report(
    system, limit: int = 10, node_ids: Optional[Sequence[int]] = None
) -> Dict[int, List[Any]]:
    """Map of diverged oid -> per-holder values (up to ``limit`` objects).

    The first ``limit`` items of the replica audit
    (:meth:`~repro.replication.base.ReplicatedSystem.diverged_objects`),
    over all nodes or only ``node_ids``: each object is compared across
    its own holders only, and nothing is materialised or snapshotted to
    build the report.
    """
    return {
        oid: values
        for oid, _holders, values in islice(
            system.diverged_objects(node_ids), limit
        )
    }


def conservation_total(system) -> Any:
    """Sum over objects of the value held at each object's first holder —
    for increment-only workloads on a converged system this must equal the
    sum of committed deltas (no lost updates).  Under full replication this
    is simply node 0's total."""
    total: Any = 0
    seen = set()
    for node in system.nodes:
        for oid, value in node.store.snapshot().items():
            if oid not in seen:
                seen.add(oid)
                total += value
    return total
