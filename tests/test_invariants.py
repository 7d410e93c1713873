"""The one judge's checks, one by one: what each catches and reports."""

from repro.faults.oracle import (
    OracleVerdict,
    conservation_total,
    divergence_report,
    evaluate,
)
from repro.replication.eager_group import EagerGroupSystem
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.reconciliation import ManualReconciliation
from repro.storage.lock_manager import LockMode
from repro.txn.ops import IncrementOp, WriteOp
from repro.replication import SystemSpec


def healthy_system():
    system = EagerGroupSystem(
        SystemSpec(num_nodes=2, db_size=6, action_time=0.001,
                   record_history=True),
    )
    system.submit(0, [IncrementOp(0, 5)])
    system.submit(1, [IncrementOp(1, 7)])
    system.run()
    return system


def leak_a_lock(system):
    txn = system.nodes[0].tm.begin()
    system.nodes[0].locks.acquire(txn, 3, LockMode.EXCLUSIVE)


class TestReport:
    def test_ok_report(self):
        verdict = OracleVerdict(expected_convergence=True, checked=["x"])
        assert verdict.ok
        assert verdict.describe() == "oracle ok (x)"

    def test_failed_report(self):
        verdict = OracleVerdict(
            expected_convergence=True, failures=["boom"], checked=["x"]
        )
        assert not verdict.ok
        assert "boom" in verdict.describe()

    def test_merge(self):
        """Failures of every check land in the one list, in check order."""
        system = healthy_system()
        leak_a_lock(system)
        system.metrics.deadlocks = 99
        verdict = evaluate(system)
        assert len(verdict.failures) == 2
        assert "lock" in verdict.failures[0]
        assert "deadlocks" in verdict.failures[1]
        assert verdict.checked[:2] == ["quiescent", "accounting"]


class TestChecks:
    def test_healthy_system_passes_everything(self):
        verdict = evaluate(healthy_system())
        assert verdict.ok, verdict.describe()
        assert verdict.checked == [
            "quiescent", "accounting", "converged", "serializable",
        ]
        assert verdict.diverged == 0
        assert verdict.quiescent and verdict.witness is None

    def test_divergence_detected(self):
        system = LazyGroupSystem(
            SystemSpec(num_nodes=2, db_size=4, action_time=0.001,
                       message_delay=1.0),
            rule=ManualReconciliation(),
        )
        system.submit(0, [WriteOp(0, 1)])
        system.submit(1, [WriteOp(0, 2)])
        system.run()
        verdict = evaluate(system)
        assert not verdict.ok
        assert verdict.diverged == 1
        assert "diverged" in verdict.describe()
        detail = divergence_report(system)
        assert 0 in detail
        assert sorted(detail[0]) == [1, 2]

    def test_quiescence_failure_detected(self):
        system = healthy_system()
        leak_a_lock(system)  # grab a lock and never release it
        verdict = evaluate(system)
        assert not verdict.ok and not verdict.quiescent
        # one check per node: the leaked lock is reported once
        assert verdict.failures == ["node 0: 1 transactions still hold locks"]

    def test_accounting_failure_detected(self):
        system = healthy_system()
        system.metrics.deadlocks = 99  # impossible: no waits recorded
        verdict = evaluate(system)
        assert not verdict.ok
        assert verdict.quiescent

    def test_serializability_check_skips_without_history(self):
        system = EagerGroupSystem(SystemSpec(num_nodes=2, db_size=4))
        verdict = evaluate(system)
        assert verdict.ok
        assert "serializable" not in verdict.checked

    def test_serializability_failure_detected(self):
        """Lazy-group declares convergence only: its racing increments
        leave a precedence cycle, reported as a witness, not a failure."""
        system = LazyGroupSystem(
            SystemSpec(num_nodes=3, db_size=2, action_time=0.001,
                       message_delay=0.5, seed=0, record_history=True),
        )
        for origin in range(3):
            system.submit(origin, [IncrementOp(0, 1)])
        system.run()
        verdict = evaluate(system)
        assert verdict.witness is not None
        assert "serializable" not in verdict.checked
        assert verdict.ok, verdict.describe()

    def test_conservation_total(self):
        system = healthy_system()
        assert conservation_total(system) == 12
