"""Per-node storage substrate.

Each simulated node owns:

* an :class:`~repro.storage.store.ObjectStore` of versioned
  :class:`~repro.storage.record.Record` objects (value + Lamport timestamp,
  one int),
* a strict two-phase-locking :class:`~repro.storage.lock_manager.LockManager`
  with FIFO wait queues,
* a :class:`~repro.storage.deadlock.DeadlockDetector` maintaining the global
  waits-for graph (shared across nodes so distributed eager transactions can
  form — and be caught in — cross-node cycles),
* a :class:`~repro.storage.wal.WriteAheadLog` supplying undo on abort.

The paper's model ignores read locks ("a weak multi-version form of
committed-read serialization"); the lock manager nevertheless implements both
shared and exclusive modes so the eager analysis can optionally be run with
full serializability.
"""

from repro.storage.deadlock import DeadlockDetector
from repro.storage.lock_manager import LockManager, LockMode
from repro.storage.record import Record
from repro.storage.store import ObjectStore
from repro.storage.versioning import Timestamp, TimestampGenerator
from repro.storage.wal import LogEntry, WriteAheadLog

__all__ = [
    "DeadlockDetector",
    "LockManager",
    "LockMode",
    "Record",
    "ObjectStore",
    "Timestamp",
    "TimestampGenerator",
    "LogEntry",
    "WriteAheadLog",
]
