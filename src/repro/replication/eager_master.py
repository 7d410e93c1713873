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

from typing import Dict, Optional

from repro.replication.base import MasterOwnership, ReplicatedSystem, SystemSpec
from repro.replication.propagation import Eager


def round_robin_ownership(db_size: int, num_nodes: int) -> Dict[int, int]:
    """Default ownership map: object ``oid`` is mastered at ``oid % nodes``."""
    return {oid: oid % num_nodes for oid in range(db_size)}


def single_master_ownership(db_size: int, master: int = 0) -> Dict[int, int]:
    """Every object mastered at one node — the Data Cycle architecture
    [Herman] the paper compares two-tier against."""
    return {oid: master for oid in range(db_size)}


class EagerMasterSystem(Eager, MasterOwnership, ReplicatedSystem):
    """Master-owned eager replication (Table 1: eager / master).

    Args:
        ownership: map oid -> master node id.  Defaults to round-robin,
            spreading mastership evenly, which is the fair comparison point
            for the group variant.
    """

    name = "eager-master"
    #: master-first locking *is* the certification; no post-commit traffic
    PHASES = ("admission", "execute", "commit")

    def __init__(self, spec: SystemSpec, *,
                 ownership: Optional[Dict[int, int]] = None):
        super().__init__(spec)
        self._bind_ownership(ownership)
