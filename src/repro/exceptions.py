"""Exception hierarchy for the replication library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""


class ProcessKilled(ReproError):
    """A simulation process was externally interrupted.

    Raised *inside* a process generator when another component interrupts it
    (for example the deadlock detector aborting a waiting transaction).
    """


class TransactionError(ReproError):
    """Base class for transaction-processing failures."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back and its effects undone.

    Attributes:
        reason: short machine-readable cause, e.g. ``"deadlock"``.
    """

    def __init__(self, message: str = "transaction aborted", reason: str = "unknown"):
        super().__init__(message)
        self.reason = reason


class DeadlockAbort(TransactionAborted):
    """The transaction was chosen as a deadlock victim."""

    def __init__(self, message: str = "deadlock victim"):
        super().__init__(message, reason="deadlock")


class CrashAbort(DeadlockAbort):
    """The transaction's node crashed while the transaction was in flight.

    Subclasses :class:`DeadlockAbort` so every strategy's existing abort
    path — catch, WAL undo, release locks — handles a crash without new
    ``except`` clauses.  The distinct ``reason`` stops the harness's
    deadlock-retry loop from resubmitting work at a dead node.
    """

    def __init__(self, message: str = "node crashed"):
        super(DeadlockAbort, self).__init__(message, reason="crash")


class MigrationAbort(DeadlockAbort):
    """The copy the transaction waited for migrated away (not retried)."""

    def __init__(self, message: str = "object migrated"):
        super(DeadlockAbort, self).__init__(message, reason="migrated")


class LockError(TransactionError):
    """Invalid lock-manager usage (double release, unknown holder, ...)."""


class InvalidStateError(TransactionError):
    """An operation was attempted in an illegal transaction state."""


class ReplicationError(ReproError):
    """Base class for replication-protocol failures."""


class ScopeViolationError(ReplicationError):
    """A tentative transaction touched data outside its allowed scope.

    The two-tier scope rule (paper section 7): a tentative transaction may only
    involve objects mastered at base nodes or at the originating mobile node.
    """


class DisconnectedError(ReplicationError):
    """A network send was attempted while the link is disconnected."""


class ConfigurationError(ReproError):
    """Invalid model or experiment parameters."""
