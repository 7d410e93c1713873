"""Replication strategies — the paper's Table 1 and beyond, executable.

Every strategy expresses its transaction lifecycle as a **commit-protocol
pipeline** — an ordered subset of the phases ``admission, execute,
certify, commit, propagate`` (see :mod:`~repro.replication.pipeline`).

Four baseline strategies span the paper's taxonomy.  Table 1 is two
axes and so are they: each is a row mixin from
:mod:`~repro.replication.propagation` (``Eager`` or ``Lazy``) declared
over an ownership column (group, or
:class:`~repro.replication.base.MasterOwnership`), plus the behaviour that
is its own:

* :class:`~repro.replication.eager_group.EagerGroupSystem` — update anywhere,
  all replicas updated inside the originating transaction (one distributed
  transaction, N object owners).
* :class:`~repro.replication.eager_master.EagerMasterSystem` — updates go to
  each object's master first, still inside one transaction.
* :class:`~repro.replication.lazy_group.LazyGroupSystem` — update anywhere,
  commit locally, propagate asynchronously; timestamp mismatches at replicas
  are *reconciliations* (Figure 4).
* :class:`~repro.replication.lazy_master.LazyMasterSystem` — updates execute
  at object masters, then propagate to read-only slaves; stale propagations
  are suppressed by timestamp, never reconciled.

Two certification-based strategies probe the design space the paper's
taxonomy leaves open — trading distributed locking for clean commit-time
aborts:

* :class:`~repro.replication.deferred_update.DeferredUpdateSystem` —
  lock-free local execution, write-sets certified by a sequencer node,
  certified updates applied at every replica (Pacheco/Sciascia/Pedone).
* :class:`~repro.replication.scar.ScarSystem` — stale-tolerant local
  reads, commit-time logical-timestamp validation at the master copies,
  asynchronous replica refresh (Lu/Yu/Madden).

Supporting modules: :mod:`~repro.replication.reconciliation` (the Oracle-7
style rule library for resolving lazy-group conflicts — with
``propagate_ops=True`` and the merge rule, section 6's commutative
updates) and :mod:`~repro.replication.quorum` (Gifford weighted voting,
used by eager systems for availability).

The proposed two-tier scheme lives in :mod:`repro.core`.  The canonical
name -> class registry is ``repro.harness.experiment.STRATEGY_CLASSES``;
the CLI, docs, and comparison harness all derive their strategy lists
from it.
"""

from repro.replication.base import (
    NodeContext,
    ReplicatedSystem,
    ReplicaUpdate,
    SystemSpec,
)
from repro.replication.deferred_update import DeferredUpdateSystem
from repro.replication.eager_group import EagerGroupSystem
from repro.replication.eager_master import EagerMasterSystem
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.lazy_master import LazyMasterSystem
from repro.replication.pipeline import PHASE_ORDER
from repro.replication.scar import ScarSystem

__all__ = [
    "NodeContext",
    "PHASE_ORDER",
    "ReplicatedSystem",
    "ReplicaUpdate",
    "SystemSpec",
    "DeferredUpdateSystem",
    "EagerGroupSystem",
    "EagerMasterSystem",
    "LazyGroupSystem",
    "LazyMasterSystem",
    "ScarSystem",
]
