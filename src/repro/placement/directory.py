"""Directory placement: an explicit, migratable shard map.

Where :class:`~repro.placement.hash_shard.HashShardPlacement` *computes*
each replica set as a pure function of ``(seed, oid, node)``, a directory
placement *stores* one: objects group into ``S`` shards, each shard is
assigned ``k`` nodes on a seeded ring, and per-object lookups consult the
map.  Holding an explicit map buys two things a computed placement cannot
express (Sutra & Shapiro's partial-replication playbook):

* **locality** — the default ``grouping="locality"`` maps contiguous
  object-id ranges to the same shard, so objects that transact together
  (checkbook pairs, TPC-B branch groups, Zipf-hot prefixes) co-locate on
  one replica set and a multi-object transaction touches one shard's
  nodes instead of scattering across the cluster.  ``grouping="hash"``
  scatters ids instead — the ablation baseline.
* **migration** — :meth:`BoundDirectory.move` rewrites a single object's
  replica set in place (master position preserved), which the system
  layer pairs with a record transfer through the normal propagation path.

Construction is deterministic and seeded: the node ring is a Fisher–Yates
permutation driven by the same splitmix64 mixer the hash placement uses,
so a map is reproducible from ``(placement_seed, num_nodes, db_size)``
alone and costs O(S·k) memory — 10k nodes × 1M objects binds in
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.placement.base import BoundPlacement, Placement
from repro.placement.hash_shard import _score

#: lane constants decorrelate the mixer's uses (ring, rotation, grouping)
_RING_LANE = 0x51
_ROT_LANE = 0xA5
_HASH_LANE = 0x0B

_GROUPINGS = ("locality", "hash")


@dataclass(frozen=True)
class DirectoryPlacement(Placement):
    """Explicit shard-map placement with locality grouping and migration.

    Args:
        replication_factor: copies per object (Table 2's ``k``), clamped
            to the node count at bind time.
        shards: shard count ``S``; ``0`` (default) picks
            ``min(num_nodes, db_size)`` at bind time.  Clamped to
            ``db_size`` so no shard is empty.
        grouping: ``"locality"`` maps contiguous oid ranges to one shard;
            ``"hash"`` scatters oids across shards (ablation baseline).
        placement_seed: reshuffles the node ring and shard rotations
            without touching any workload randomness.
    """

    replication_factor: int = 3
    shards: int = 0
    grouping: str = "locality"
    placement_seed: int = 0

    kind = "dir"

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ConfigurationError(
                "replication_factor must be >= 1, got "
                f"{self.replication_factor}"
            )
        if self.shards < 0:
            raise ConfigurationError(
                f"shards must be >= 0 (0 means auto), got {self.shards}"
            )
        if self.grouping not in _GROUPINGS:
            raise ConfigurationError(
                f"grouping must be one of {list(_GROUPINGS)}, got "
                f"{self.grouping!r}"
            )
        if self.placement_seed < 0:
            raise ConfigurationError(
                f"placement_seed must be >= 0, got {self.placement_seed}"
            )

    def bind(self, num_nodes: int, db_size: int) -> "BoundDirectory":
        return BoundDirectory(self, num_nodes, db_size)


class BoundDirectory(BoundPlacement):
    """The directory proper: a shard map plus per-object move overrides.

    Lookups are O(1): ``oid → shard`` is arithmetic (locality) or one mix
    (hash), ``shard → replica set`` is a list index, and migrated objects
    sit in an override table consulted first.
    """

    def __init__(self, spec: DirectoryPlacement, num_nodes: int, db_size: int):
        super().__init__(spec, num_nodes, db_size)
        self._k = min(spec.replication_factor, num_nodes)
        self._seed = spec.placement_seed
        self._grouping = spec.grouping
        requested = spec.shards or min(num_nodes, db_size)
        self._shards = max(1, min(requested, db_size))
        self.is_full = self._k >= num_nodes
        # seeded ring: Fisher–Yates over node ids, splitmix-driven so the
        # permutation is stable across processes (no stdlib RNG semantics)
        ring = list(range(num_nodes))
        for i in range(num_nodes - 1, 0, -1):
            j = _score(self._seed, i, _RING_LANE) % (i + 1)
            ring[i], ring[j] = ring[j], ring[i]
        # shard s takes k consecutive ring slots starting at s·k; rotating
        # each window by a seeded offset spreads mastership over the window
        # (plain s·k starts would confine masters to gcd(k, N) residues)
        n, k = num_nodes, self._k
        shard_map: List[Tuple[int, ...]] = []
        for s in range(self._shards):
            start = (s * k) % n
            members = [ring[(start + j) % n] for j in range(k)]
            rot = _score(self._seed, s, _ROT_LANE) % k
            shard_map.append(tuple(members[rot:] + members[:rot]))
        self._map = shard_map
        self._overrides: Dict[int, Tuple[int, ...]] = {}
        self._shard_sizes: Optional[List[int]] = None

    # -- lookups ------------------------------------------------------- #

    @property
    def replication_factor(self) -> int:
        return self._k

    @property
    def shard_count(self) -> int:
        return self._shards

    @property
    def moved(self) -> int:
        """Objects whose replica set has been rewritten by :meth:`move`."""
        return len(self._overrides)

    def shard_of(self, oid: int) -> int:
        if self._grouping == "locality":
            return oid * self._shards // self.db_size
        return _score(self._seed, oid, _HASH_LANE) % self._shards

    def replicas(self, oid: int) -> Tuple[int, ...]:
        override = self._overrides.get(oid)
        if override is not None:
            return override
        return self._map[self.shard_of(oid)]

    def _base_shard_sizes(self) -> List[int]:
        if self._shard_sizes is None:
            if self._grouping == "locality":
                # shard_of floors oid*S/db, so shard s covers
                # [ceil(s*db/S), ceil((s+1)*db/S)) — the boundaries are
                # ceilings, not floors
                db, s_count = self.db_size, self._shards
                edges = [
                    -(-(s * db) // s_count) for s in range(s_count + 1)
                ]
                self._shard_sizes = [
                    edges[s + 1] - edges[s] for s in range(s_count)
                ]
            else:
                sizes = [0] * self._shards
                for oid in range(self.db_size):
                    sizes[self.shard_of(oid)] += 1
                self._shard_sizes = sizes
        return self._shard_sizes

    def resident_counts(self) -> List[int]:
        counts = [0] * self.num_nodes
        for shard, size in enumerate(self._base_shard_sizes()):
            for node in self._map[shard]:
                counts[node] += size
        for oid, override in self._overrides.items():
            base = self._map[self.shard_of(oid)]
            for node in base:
                if node not in override:
                    counts[node] -= 1
            for node in override:
                if node not in base:
                    counts[node] += 1
        return counts

    # -- migration ----------------------------------------------------- #

    def replicas_after_move(self, oid: int, src: int, dst: int) -> Tuple[int, ...]:
        """``oid``'s replica set with ``dst`` in ``src``'s place.

        Master position is preserved: moving the master makes ``dst`` the
        new master.  :meth:`move` binds the answer; the caller
        (``ReplicatedSystem.migrate``) ships the record itself.
        """
        if not 0 <= oid < self.db_size:
            raise ConfigurationError(
                f"oid {oid} outside the database [0, {self.db_size})"
            )
        for label, node in (("src", src), ("dst", dst)):
            if not 0 <= node < self.num_nodes:
                raise ConfigurationError(
                    f"{label} node {node} outside the placement "
                    f"[0, {self.num_nodes})"
                )
        current = self.replicas(oid)
        if src not in current:
            raise ConfigurationError(
                f"node {src} does not hold object {oid} "
                f"(replicas {current})"
            )
        if dst in current:
            raise ConfigurationError(
                f"node {dst} already holds object {oid} "
                f"(replicas {current})"
            )
        return tuple(dst if node == src else node for node in current)

    def move(self, oid: int, src: int, dst: int) -> Tuple[int, ...]:
        moved = self._overrides[oid] = self.replicas_after_move(oid, src, dst)
        return moved
