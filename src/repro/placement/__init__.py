"""Placement: which nodes hold a copy of each object.

Full replication — every node holds every object — is what gives the paper
its cube-law danger: work and conflict grow as nodes × objects.  A
*placement* breaks that coupling by replicating each object at only ``k``
of ``N`` nodes (Sutra & Shapiro's fault-tolerant partial replication).

A :class:`~repro.placement.base.Placement` is a pure-data recipe
(serialisable, hashable, cache-key friendly); calling
:meth:`~repro.placement.base.Placement.bind` against a concrete
``(num_nodes, db_size)`` yields the directory object the system queries:
``replicas(oid)`` and ``master(oid)``; ``resident_counts()`` reports the
objects each node holds.

Three implementations:

* :class:`~repro.placement.full.FullReplication` — today's behaviour and
  the default everywhere; every node materialises the whole database.
* :class:`~repro.placement.hash_shard.HashShardPlacement` — rendezvous
  (highest-random-weight) hashing: deterministic, seedable, O(1) directory
  state, balanced within a few percent, and replica sets move minimally
  when nodes are added.
* :class:`~repro.placement.directory.DirectoryPlacement` — an explicit
  shard map on a seeded node ring: locality-aware grouping (objects that
  transact together co-locate) and live per-object migration via
  ``move(oid, src, dst)``, at O(S·k) directory state.
"""

from repro.placement.base import BoundPlacement, Placement
from repro.placement.directory import DirectoryPlacement
from repro.placement.full import FullReplication
from repro.placement.hash_shard import HashShardPlacement

__all__ = [
    "BoundPlacement",
    "Placement",
    "DirectoryPlacement",
    "FullReplication",
    "HashShardPlacement",
]
