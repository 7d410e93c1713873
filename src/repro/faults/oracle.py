"""Post-run invariant oracle for faulted experiments.

Every faulted run ends with a verdict: did the system end in a state
consistent with what its strategy *promises* under the executed fault plan?
The oracle composes the standard invariants from
:mod:`repro.verify.invariants` with a fault-aware convergence expectation:

* duplicates, reordering, jitter, healed partitions and recovered crashes
  must leave a convergent strategy convergent — timestamp idempotency
  absorbs the link faults, parked queues flush at heal, and the WAL rolls
  lost work back at crash;
* message **drops** and nodes that never come back destroy information the
  strategy never sees, so divergence is excused (only the per-node
  invariants — quiescence, counter accounting — still apply);
* a partition that **never heals** is *not* excused: the replicas end the
  run disagreeing, which is precisely the system delusion the oracle
  exists to flag — such runs report ``oracle_ok = False``.

Two-tier systems are judged on their **base tier**: mobiles are
legitimately stale while dark (that is the design), but the master tier
diverging means lost durable updates — the paper's system delusion.

The verdict is attached to every campaign cell as ``oracle_ok`` so a fault
sweep reports correctness alongside its rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.plan import FaultPlan
from repro.verify.invariants import (
    InvariantReport,
    check_accounting,
    check_converged,
    check_quiescent,
    check_serializable,
)


@dataclass
class OracleVerdict:
    """The oracle's judgement of one finished run.

    Attributes:
        ok: every applicable invariant held.
        expected_convergence: whether replica convergence was required
            (False under lossy plans, where divergence is legitimate).
        failures: human-readable invariant violations.
        checked: names of the invariants that ran.
        diverged: what the convergence check counted — ``divergence()``,
            or ``base_divergence()`` for two-tier; None when convergence
            was not required and no audit ran.
    """

    ok: bool
    expected_convergence: bool
    failures: List[str] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)
    diverged: Optional[int] = None

    def describe(self) -> str:
        if self.ok:
            return f"oracle ok ({', '.join(self.checked)})"
        return "oracle failures:\n" + "\n".join(
            f"  - {failure}" for failure in self.failures
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "expected_convergence": self.expected_convergence,
            "failures": list(self.failures),
            "checked": list(self.checked),
        }


def evaluate(
    system,
    plan: Optional[FaultPlan] = None,
    expect_serializable: bool = False,
) -> OracleVerdict:
    """Judge a finished system against its fault plan.

    Args:
        system: the drained :class:`~repro.replication.base.ReplicatedSystem`.
        plan: the executed fault plan (None means fault-free).
        expect_serializable: additionally require a conflict-serializable
            recorded history (needs ``record_history=True``).
    """
    expected_convergence = plan is None or (
        plan.link.drop == 0.0 and all(c.recovers for c in plan.crashes)
    )
    report = check_quiescent(system)
    report = report.merge(check_accounting(system))
    report = report.merge(_check_no_dead_nodes(system, plan))
    if expected_convergence:
        report = report.merge(_check_convergence(system))
    if expect_serializable:
        report = report.merge(check_serializable(system))
    return OracleVerdict(
        ok=report.ok,
        expected_convergence=expected_convergence,
        failures=list(report.failures),
        checked=list(report.checked),
        diverged=report.diverged,
    )


def _check_convergence(system) -> InvariantReport:
    """Full convergence for flat systems; base-tier convergence for
    two-tier, whose mobiles may legitimately end the run disconnected."""
    from repro.core.protocol import TwoTierSystem

    if not isinstance(system, TwoTierSystem):
        return check_converged(system)
    diverged = system.base_divergence()
    report = InvariantReport(checked=["base-tier"], diverged=diverged)
    if diverged:
        report.failures.append(
            f"{diverged} objects diverged across the base tier"
        )
    return report


def _check_no_dead_nodes(system, plan: Optional[FaultPlan]) -> InvariantReport:
    """When every planned crash recovers, no node may still be down at the
    end of the run — a node still dark means the timeline did not finish."""
    report = InvariantReport(checked=["recovered"])
    if plan is None or not plan.crashes:
        return report
    if not all(c.recovers for c in plan.crashes):
        return report
    still_down = sorted(getattr(system, "crashed", ()))
    if still_down:
        report.failures.append(
            f"nodes still crashed at end of run: {still_down}"
        )
    return report
