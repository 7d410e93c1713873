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
