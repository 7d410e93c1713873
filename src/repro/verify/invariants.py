"""Reusable system invariants.

The test suite and benchmarks assert the same handful of whole-system
properties over and over; these helpers name them, produce useful
diagnostics when they fail, and give library users a one-call health check
after any simulation::

    from repro.verify.invariants import check_all
    report = check_all(system)
    assert report.ok, report.describe()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional

from repro.exceptions import InvalidStateError


@dataclass
class InvariantReport:
    """Outcome of one or more invariant checks."""

    failures: List[str] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)
    #: objects the convergence check counted as diverged (None: none ran)
    diverged: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        if self.ok:
            return f"all invariants hold ({', '.join(self.checked)})"
        return "invariant failures:\n" + "\n".join(
            f"  - {failure}" for failure in self.failures
        )

    def merge(self, other: "InvariantReport") -> "InvariantReport":
        return InvariantReport(
            failures=self.failures + other.failures,
            checked=self.checked + other.checked,
            diverged=other.diverged if self.diverged is None else self.diverged,
        )


def check_quiescent(system) -> InvariantReport:
    """No transaction holds locks or pending undo at any node."""
    report = InvariantReport(checked=["quiescent"])
    for node in system.nodes:
        try:
            node.tm.assert_quiescent()
        except InvalidStateError as exc:
            report.failures.append(f"node {node.node_id}: {exc}")
        held = node.locks.holding_transactions()
        if held:
            report.failures.append(
                f"node {node.node_id}: {held} lock holders remain"
            )
    return report


def check_converged(system) -> InvariantReport:
    """Every replica agrees on every object's value."""
    diverged = system.divergence()
    report = InvariantReport(checked=["converged"], diverged=diverged)
    if diverged:
        details = divergence_report(system, limit=5)
        report.failures.append(
            f"{diverged} objects diverged; first few: {details}"
        )
    return report


def check_accounting(system) -> InvariantReport:
    """Counter bookkeeping closes: adjudicated tentative work, commit/abort
    totals, and wait/deadlock ordering are internally consistent."""
    report = InvariantReport(checked=["accounting"])
    m = system.metrics
    if m.deadlocks > m.waits:
        report.failures.append(
            f"more deadlocks ({m.deadlocks}) than waits ({m.waits}) — every "
            "deadlock victim must first have waited"
        )
    adjudicated = m.tentative_accepted + m.tentative_rejected
    if adjudicated > m.tentative_committed:
        report.failures.append(
            f"adjudicated tentative txns ({adjudicated}) exceed committed "
            f"({m.tentative_committed})"
        )
    for name, value in m.as_dict().items():
        if isinstance(value, (int, float)) and value < 0:
            report.failures.append(f"counter {name} went negative: {value}")
    return report


def check_serializable(system) -> InvariantReport:
    """The recorded schedule is one-copy conflict serializable.

    Only meaningful for systems built with ``record_history=True`` and a
    serializable strategy; skipped (vacuously ok) without a history.
    """
    report = InvariantReport(checked=["serializable"])
    history = getattr(system, "history", None)
    if history is None:
        return report
    graph = history.conflict_graph()
    cycle = graph.find_cycle()
    if cycle is not None:
        report.failures.append(
            "precedence cycle among committed transactions: "
            + " -> ".join(map(str, cycle))
        )
    return report


def check_all(system, expect_serializable: bool = False) -> InvariantReport:
    """Run the standard post-run health checks."""
    report = check_quiescent(system)
    report = report.merge(check_converged(system))
    report = report.merge(check_accounting(system))
    if expect_serializable:
        report = report.merge(check_serializable(system))
    return report


def divergence_report(system, limit: int = 10) -> Dict[int, List[Any]]:
    """Map of diverged oid -> per-holder values (up to ``limit`` objects).

    The first ``limit`` items of the audit ``system.divergence()`` counts
    (:meth:`~repro.replication.base.ReplicatedSystem.diverged_objects`): each
    object is compared across its own holders only — its replica set under
    a partial placement, every node under full replication — and nothing
    is materialised or snapshotted to build the report.
    """
    return {
        oid: values
        for oid, _holders, values in islice(system.diverged_objects(), limit)
    }


def conservation_total(system) -> Any:
    """Sum over objects of the value held at each object's first holder —
    for increment-only workloads on a converged system this must equal the
    sum of committed deltas (no lost updates).  Under full replication this
    is simply node 0's total."""
    snapshots = [node.store.snapshot() for node in system.nodes]
    total: Any = 0
    seen = set()
    for snap in snapshots:
        for oid, value in snap.items():
            if oid not in seen:
                seen.add(oid)
                total += value
    return total
