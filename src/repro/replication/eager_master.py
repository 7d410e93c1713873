"""Eager master replication: synchronous updates routed through owners.

"Having a master for each object helps eager replication avoid deadlocks.
Suppose each object has an owner node. Updates go to this node first and are
then applied to the replicas. If each transaction updated a single replica,
the object-master approach would eliminate all deadlocks." (section 3)

The mechanism: all writers of object ``o`` must first lock ``o`` at its
master, so per-object conflicts serialize at a single node; only
multi-object transactions can still deadlock (through inconsistent lock
orders across different masters).
"""

from __future__ import annotations

from repro.replication.base import MasterOwnership, ReplicatedSystem
from repro.replication.propagation import Eager


class EagerMasterSystem(Eager, MasterOwnership, ReplicatedSystem):
    """Master-owned eager replication (Table 1: eager / master).

    Every object is mastered at its placement's master — round-robin over
    the nodes under full replication, which spreads mastership evenly and
    is the fair comparison point for the group variant.
    """

    name = "eager-master"
    #: master-first locking *is* the certification; no post-commit traffic
    PHASES = ("admission", "execute", "commit")
