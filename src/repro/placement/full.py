"""Full replication: every node holds every object (the paper's model).

This is the default placement and reproduces the pre-placement behaviour
exactly — including the paper's ``oid % num_nodes`` round-robin mastership,
which is what the master strategies ask for as each object's owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.placement.base import BoundPlacement, Placement


@dataclass(frozen=True)
class FullReplication(Placement):
    """Every object at every node (Table 2's ``Nodes × DB_Size`` copies)."""

    kind = "full"

    def bind(self, num_nodes: int, db_size: int) -> "BoundFullReplication":
        return BoundFullReplication(self, num_nodes, db_size)


class BoundFullReplication(BoundPlacement):
    """The trivial directory: all nodes, round-robin masters."""

    is_full = True

    def __init__(self, spec: Placement, num_nodes: int, db_size: int):
        super().__init__(spec, num_nodes, db_size)
        self._all_nodes: Tuple[int, ...] = tuple(range(num_nodes))

    @property
    def replication_factor(self) -> int:
        return self.num_nodes

    def replicas(self, oid: int) -> Tuple[int, ...]:
        return self._all_nodes

    def master(self, oid: int) -> int:
        # the classic round-robin ownership
        return oid % self.num_nodes

    def is_replica(self, oid: int, node_id: int) -> bool:
        return 0 <= node_id < self.num_nodes

    def objects_at(self, node_id: int) -> Optional[Sequence[int]]:
        return None
