"""History recording and conflict-serializability checking.

The recorded history contains one event per executed access::

    (sequence, node_id, txn_id, oid, kind)    kind in {"r", "w"}

Events are attributed to the **root** user transaction: when a lazy scheme
installs a replica update at a slave, the install is recorded as the root
transaction's write at that node (the housekeeping transaction is an
implementation detail — in the paper's terms it carries the root's update to
the replica).  Only transactions marked committed participate in the check,
and a write carried by a housekeeping transaction only once that carrier
committed: an attempt that fell to a deadlock or a crash was undone.

Serializability test: the classic conflict (precedence) graph.  For each
``(node, oid)`` stream, every pair of accesses by different transactions
where at least one is a write orders ``earlier -> later``; the graph keeps
the subset of those edges that spans the same transitive closure (see
:meth:`History.conflict_graph`).  The recorded schedule is (one-copy)
conflict serializable iff the graph is acyclic; a cycle is returned as a
concrete anomaly witness.

The cycle search is self-contained (iterative DFS); when networkx is
available, :meth:`ConflictGraph.as_networkx` exports the graph for richer
analysis.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Access:
    """One recorded access."""

    seq: int
    node_id: int
    txn_id: int
    oid: int
    kind: str  # "r" or "w"
    #: the housekeeping transaction carrying the root's write, if any
    via: Optional[int] = None

    @property
    def is_write(self) -> bool:
        # "c" marks a conflicting update the replica *rejected* (a lazy
        # reconciliation): for precedence purposes the root's update was
        # ordered after the local state at this replica, so it conflicts
        # like a write even though its value was dropped.
        return self.kind in ("w", "c")


class History:
    """Append-only access log with commit marking.

    Wire a system with ``record_history=True`` and its transaction managers
    feed this automatically; standalone use::

        history = History()
        history.record_write(node_id=0, txn_id=1, oid=7)
        history.mark_committed(1)
        assert history.conflict_graph().is_serializable()
    """

    def __init__(self) -> None:
        self._events: List[Access] = []
        self._committed: Set[int] = set()
        self._applied: Set[int] = set()  # committed housekeeping carriers
        self._seq = itertools.count()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def record_read(self, node_id: int, txn_id: int, oid: int) -> None:
        self._events.append(
            Access(next(self._seq), node_id, txn_id, oid, "r")
        )

    def record_write(
        self, node_id: int, txn_id: int, oid: int, via: Optional[int] = None
    ) -> None:
        self._events.append(
            Access(next(self._seq), node_id, txn_id, oid, "w", via)
        )

    def record_conflict(self, node_id: int, txn_id: int, oid: int) -> None:
        """A replica rejected ``txn_id``'s update to ``oid`` (lazy-group
        reconciliation).  The rejection is precedence evidence: this replica
        ordered the local committed state ahead of the incoming update."""
        self._events.append(
            Access(next(self._seq), node_id, txn_id, oid, "c")
        )

    def mark_committed(self, txn_id: int) -> None:
        self._committed.add(txn_id)

    def mark_applied(self, via: int) -> None:
        """The housekeeping transaction ``via`` committed: the writes it
        carried stand."""
        self._applied.add(via)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def events(self) -> List[Access]:
        return list(self._events)

    @property
    def committed_ids(self) -> Set[int]:
        return set(self._committed)

    def committed_events(self) -> List[Access]:
        """Events of committed transactions, in execution order."""
        committed, applied = self._committed, self._applied
        return [
            e for e in self._events
            if e.txn_id in committed and (e.via is None or e.via in applied)
        ]

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------ #
    # checking
    # ------------------------------------------------------------------ #

    def conflict_graph(self) -> "ConflictGraph":
        """Build the precedence graph over committed transactions.

        Each ``(node, oid)`` stream contributes only the edges that carry
        its order: the last writer to each later reader, the readers since
        the last write to the next writer, and the last writer to the next
        writer.  Every other conflicting pair is reachable through these,
        so the graph has the all-pairs graph's transitive closure — the
        same cycle verdict and serial order — at linear cost per stream.
        """
        edges: Dict[int, Set[int]] = defaultdict(set)
        # (node, oid) -> [last writer or None, readers since that write]
        streams: Dict[Tuple[int, int], list] = {}
        for event in self.committed_events():
            txn = event.txn_id
            key = (event.node_id, event.oid)
            stream = streams.get(key)
            if stream is None:
                stream = streams[key] = [None, set()]
            writer, readers = stream
            if writer is not None and writer != txn:
                edges[writer].add(txn)
            if event.is_write:
                for reader in readers:
                    if reader != txn:
                        edges[reader].add(txn)
                stream[0], stream[1] = txn, set()
            else:
                readers.add(txn)
        return ConflictGraph(nodes=set(self._committed), edges=dict(edges))


class ConflictGraph:
    """A precedence graph with cycle detection and serial-order recovery."""

    def __init__(self, nodes: Set[int], edges: Dict[int, Set[int]]):
        self.nodes = set(nodes)
        self.edges = {k: set(v) for k, v in edges.items()}

    def find_cycle(self) -> Optional[List[int]]:
        """Return one precedence cycle (an anomaly witness), or None."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self.nodes}
        for root in sorted(self.nodes):
            if color[root] != WHITE:
                continue
            path: List[int] = [root]
            stack: List[Tuple[int, Iterable[int]]] = [
                (root, iter(sorted(self.edges.get(root, ()))))
            ]
            color[root] = GRAY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if child not in color:
                        continue
                    if color[child] == GRAY:
                        idx = path.index(child)
                        return path[idx:]
                    if color[child] == BLACK:
                        continue
                    color[child] = GRAY
                    path.append(child)
                    stack.append(
                        (child, iter(sorted(self.edges.get(child, ()))))
                    )
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    color[path.pop()] = BLACK
        return None

    def is_serializable(self) -> bool:
        """Acyclic precedence graph ⇔ conflict-serializable schedule."""
        return self.find_cycle() is None

    def serial_order(self) -> List[int]:
        """A topological order (an equivalent serial schedule).

        Raises ValueError when the graph is cyclic.
        """
        in_degree = {n: 0 for n in self.nodes}
        for src, dsts in self.edges.items():
            for dst in dsts:
                if dst in in_degree:
                    in_degree[dst] += 1
        ready = sorted(n for n, d in in_degree.items() if d == 0)
        order: List[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for dst in sorted(self.edges.get(node, ())):
                if dst not in in_degree:
                    continue
                in_degree[dst] -= 1
                if in_degree[dst] == 0:
                    ready.append(dst)
            ready.sort()
        if len(order) != len(self.nodes):
            raise ValueError("conflict graph is cyclic; no serial order")
        return order

    def edge_count(self) -> int:
        return sum(len(v) for v in self.edges.values())

    def as_networkx(self):
        """Export as a networkx DiGraph (optional dependency)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        for src, dsts in self.edges.items():
            graph.add_edges_from((src, dst) for dst in dsts)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ConflictGraph txns={len(self.nodes)} "
            f"edges={self.edge_count()}>"
        )
