"""Rendezvous-hashed partial replication.

Each object lives at the ``k`` nodes with the highest
highest-random-weight (HRW) score ``mix(seed, oid, node)``.  Properties
that make this the right default directory for a simulator:

* **deterministic & seedable** — the assignment is a pure function of
  ``(placement_seed, oid, node)``; no directory state to replicate, no
  coordination (the SCAR-style "cheap placement" argument).
* **memory per touched object, not per object** — there is no directory
  to build: a replica set is computed on an object's first lookup and
  memoised as a row of ``k`` small node ids (1 byte each below 255
  nodes), so a bound directory holds about ``k`` bytes per object looked
  up and nothing for the rest.
* **balanced** — scores are i.i.d. uniform per (oid, node), so shard sizes
  concentrate tightly around ``k · db_size / N``.
* **minimal movement** — adding a node only claims the objects where the
  new node's score enters the top ``k`` (expected fraction ``k/(N+1)``);
  all other replica sets are untouched.

The mixer is a splitmix64-style finaliser over a linear combination of the
inputs — plain 64-bit integer arithmetic, stable across Python processes
(unlike the salted built-in ``hash``).

:func:`_score` is the scalar definition.  A bound directory does not call
it per node: it scores all ``N`` nodes of an object at once by running the
same two rounds lane-wise over one wide Python integer — node ``n``'s
64-bit state sits in the low half of the 128-bit lane at bit ``128·n`` —
so a first-touch lookup is about fifteen big-integer operations, one
``struct`` unpack and one sort instead of ``N`` Python calls.  The
per-node term is packed at bind time; the replica sets are bit-identical
to ranking by :func:`_score` (pinned in ``tests/test_placement.py``).

The memo is paged, because a keyspace may be far larger than memory
(``tests/test_placement.py`` binds ``2**48`` objects): the rows of
``2**_PAGE_SHIFT`` consecutive oids share one ``bytearray``, allocated on
the first lookup among them and kept in a dict keyed by
``oid >> _PAGE_SHIFT``; an all-ones row is one not scored yet.  A
repeated lookup is one ``struct`` unpack of the row, which is already the
replica tuple.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.exceptions import ConfigurationError
from repro.placement.base import BoundPlacement, Placement

_MASK = (1 << 64) - 1
_SEED_MUL = 0x9E3779B97F4A7C15
_OID_MUL = 0xD1B54A32D192ED03
_NODE_MUL = 0x8CB92BA72F3D8DD7
_OFFSET = 0x2545F4914F6CDD1D
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_LANE_BYTES = 16  # a 64-bit state times a 64-bit constant fits its lane
_PAGE_SHIFT = 6  # 64 consecutive oids share a page of replica rows
_PAGE_MASK = (1 << _PAGE_SHIFT) - 1


def _score(seed: int, oid: int, node: int) -> int:
    """HRW weight of ``node`` for ``oid`` — splitmix64 finaliser."""
    x = (
        seed * _SEED_MUL + oid * _OID_MUL + node * _NODE_MUL + _OFFSET
    ) & _MASK
    x = ((x ^ (x >> 30)) * _MIX_1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX_2) & _MASK
    return x ^ (x >> 31)


@dataclass(frozen=True)
class HashShardPlacement(Placement):
    """Partial replication: each object at ``replication_factor`` nodes.

    Args:
        replication_factor: copies per object (Table 2's ``k``).  Clamped
            to the node count at bind time, so a node-axis sweep can keep
            ``k=3`` fixed while ``N`` passes through 1 and 2.
        placement_seed: reshuffles the assignment without touching any
            workload randomness (same contract as ``fault_seed``).
    """

    replication_factor: int = 3
    placement_seed: int = 0

    kind = "hash"

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ConfigurationError(
                "replication_factor must be >= 1, got "
                f"{self.replication_factor}"
            )
        if self.placement_seed < 0:
            raise ConfigurationError(
                f"placement_seed must be >= 0, got {self.placement_seed}"
            )

    def bind(self, num_nodes: int, db_size: int) -> "BoundHashShard":
        return BoundHashShard(self, num_nodes, db_size)


class BoundHashShard(BoundPlacement):
    """HRW directory bound to a concrete system shape."""

    def __init__(self, spec: HashShardPlacement, num_nodes: int, db_size: int):
        super().__init__(spec, num_nodes, db_size)
        self._k = min(spec.replication_factor, num_nodes)
        self._seed = spec.placement_seed
        # k == N degenerates to full replication (every node holds every
        # object); flagging it lets strategies keep the classic paths
        self.is_full = self._k >= num_nodes
        # lane constants of the wide-integer kernel (see module docstring):
        # everything of _score's first line that does not depend on the oid
        base = self._seed * _SEED_MUL + _OFFSET
        lanes = b"".join(
            ((base + node * _NODE_MUL) & _MASK).to_bytes(_LANE_BYTES, "little")
            for node in range(num_nodes)
        )
        self._lane_terms = int.from_bytes(lanes, "little")
        self._lane_ones = int.from_bytes(
            (b"\x01" + bytes(_LANE_BYTES - 1)) * num_nodes, "little"
        )
        self._lane_mask = self._lane_ones * _MASK
        self._unpack_lanes = struct.Struct("<" + "Q8x" * num_nodes).unpack
        # the memo's replica rows: k node ids of the narrowest width that
        # leaves the all-ones value free to mean "not scored yet"
        width = "B" if num_nodes < 0xFF else "H" if num_nodes < 0xFFFF else "I"
        row = struct.Struct(f"<{self._k}{width}")
        self._stride = row.size
        self._unscored = (1 << 8 * struct.calcsize(width)) - 1
        self._blank_page = b"\xff" * (row.size << _PAGE_SHIFT)
        self._pages: Dict[int, bytearray] = {}
        self._page_of = self._pages.get
        self._unpack_row = row.unpack_from
        self._pack_row = row.pack_into

    @property
    def replication_factor(self) -> int:
        return self._k

    def replicas(self, oid: int) -> Tuple[int, ...]:
        page = self._page_of(oid >> _PAGE_SHIFT)
        if page is not None:
            row = self._unpack_row(page, (oid & _PAGE_MASK) * self._stride)
            if row[0] != self._unscored:
                return row
        row = self._rank(oid)
        if page is None:
            page = self._pages[oid >> _PAGE_SHIFT] = bytearray(self._blank_page)
        self._pack_row(page, (oid & _PAGE_MASK) * self._stride, *row)
        return row

    def _rank(self, oid: int) -> Tuple[int, ...]:
        """``oid``'s replica row, scored afresh; the memo is not touched."""
        # _score for every node at once.  Each right shift is masked
        # before use so a neighbour lane's low bits never leak in, and
        # each product is masked back to 64 bits per lane.
        mask = self._lane_mask
        x = (
            self._lane_terms + ((oid * _OID_MUL) & _MASK) * self._lane_ones
        ) & mask
        x = ((x ^ ((x >> 30) & mask)) * _MIX_1) & mask
        x = ((x ^ ((x >> 27) & mask)) * _MIX_2) & mask
        x ^= (x >> 31) & mask
        scores = self._unpack_lanes(
            x.to_bytes(_LANE_BYTES * self.num_nodes, "little")
        )
        # stable descending sort: equal scores keep the lower node id
        return tuple(sorted(
            range(self.num_nodes), key=scores.__getitem__, reverse=True
        )[: self._k])

    def master(self, oid: int) -> int:
        return self.replicas(oid)[0]

    def resident_counts(self) -> List[int]:
        if self.is_full:
            return [self.db_size] * self.num_nodes
        counts = [0] * self.num_nodes
        # scored past the memo, which keeps rows for looked-up objects
        # only: counting the whole keyspace must not fill every page
        rank = self._rank
        for oid in range(self.db_size):
            for node in rank(oid):
                counts[node] += 1
        return counts
