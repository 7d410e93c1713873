"""Tests for the exception hierarchy."""

import pytest

from repro import exceptions as exc


def test_hierarchy_roots():
    assert issubclass(exc.SimulationError, exc.ReproError)
    assert issubclass(exc.TransactionError, exc.ReproError)
    assert issubclass(exc.ReplicationError, exc.ReproError)
    assert issubclass(exc.ConfigurationError, exc.ReproError)


def test_deadlock_is_a_transaction_abort():
    assert issubclass(exc.DeadlockAbort, exc.TransactionAborted)
    error = exc.DeadlockAbort()
    assert error.reason == "deadlock"


def test_transaction_aborted_reason():
    error = exc.TransactionAborted("boom", reason="acceptance")
    assert error.reason == "acceptance"
    assert "boom" in str(error)


def test_reconciliation_required_carries_context():
    from repro.storage.versioning import Timestamp

    error = exc.ReconciliationRequired(7, Timestamp(1, 0), Timestamp(2, 1))
    assert error.oid == 7
    assert error.expected_ts == Timestamp(1, 0)
    assert error.found_ts == Timestamp(2, 1)
    assert "7" in str(error)


def test_acceptance_failure_message():
    error = exc.AcceptanceFailure("non-negative", detail="balance -5")
    assert error.criterion_name == "non-negative"
    assert "balance -5" in str(error)


def test_catching_the_root_catches_everything():
    for error_cls in [
        exc.SimulationError,
        exc.ProcessKilled,
        exc.DeadlockAbort,
        exc.LockError,
        exc.InvalidStateError,
        exc.ScopeViolationError,
        exc.DisconnectedError,
        exc.ConfigurationError,
    ]:
        with pytest.raises(exc.ReproError):
            raise error_cls("x")
