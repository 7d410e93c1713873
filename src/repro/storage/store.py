"""The per-node object store.

A plain in-memory map ``oid -> Record`` with explicit read/write methods so
that every mutation passes a timestamp check-point.  The store is
concurrency-agnostic: isolation is the lock manager's job and atomicity is
the WAL's; the store just holds current committed state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from repro.exceptions import ConfigurationError
from repro.storage.record import Record
from repro.storage.versioning import Timestamp


class ObjectStore:
    """The object replicas stored at one node.

    By default the store materialises the whole ``oid`` space (full
    replication).  Under a partial placement the store holds only the
    node's shard, in one of two modes:

    * ``oids=...`` — **eager**: every resident record is allocated up
      front.  Reading a non-resident object raises ``KeyError``, which is
      a routing bug, not a data condition.
    * ``resident=...`` — **lazy**: residency is a membership predicate
      (normally over ``placement.replicas``) and records materialise on
      first touch from ``initial_value``.  A million-object k-of-N store
      allocates only what it reads; ``len(store)`` counts *materialised*
      records while :meth:`oids`/:meth:`snapshot`/``in`` answer for the
      *logical* shard, so the two modes are observationally identical
      everywhere except memory.

    Example::

        store = ObjectStore(node_id=0, db_size=100)
        record = store.read(7)
        store.write(7, record.value + 1, ts)
    """

    def __init__(
        self,
        node_id: int,
        db_size: int,
        initial_value: Any = 0,
        oids: Optional[Iterable[int]] = None,
        resident: Optional[Callable[[int], bool]] = None,
    ):
        if db_size <= 0:
            raise ConfigurationError(f"db_size must be positive, got {db_size}")
        if oids is not None and resident is not None:
            raise ConfigurationError(
                "pass either oids (eager shard) or resident (lazy shard), "
                "not both"
            )
        self.node_id = node_id
        self.db_size = db_size
        self._initial_value = initial_value
        self._resident = resident
        if resident is not None:
            self._records: Dict[int, Record] = {}
        else:
            populate = range(db_size) if oids is None else oids
            self._records = {
                oid: Record(oid=oid, value=initial_value) for oid in populate
            }

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #

    def _miss(self, oid: int) -> Record:
        """Handle a ``_records`` miss: materialise lazily or re-raise."""
        if (
            self._resident is not None
            and 0 <= oid < self.db_size
            and self._resident(oid)
        ):
            record = self._records[oid] = Record(
                oid=oid, value=self._initial_value
            )
            return record
        raise KeyError(oid)

    def read(self, oid: int) -> Record:
        """Return the record for ``oid`` (raises KeyError if non-resident)."""
        try:
            return self._records[oid]
        except KeyError:
            return self._miss(oid)

    def value(self, oid: int) -> Any:
        """Convenience: the committed value of ``oid``."""
        try:
            return self._records[oid].value
        except KeyError:
            return self._miss(oid).value

    def timestamp(self, oid: int) -> Timestamp:
        """Convenience: the committed timestamp of ``oid``."""
        try:
            return self._records[oid].ts
        except KeyError:
            return self._miss(oid).ts

    def peek(self, oid: int, resident: bool = False) -> Any:
        """The committed value of ``oid`` *without* materialising it.

        A divergence/oracle audit probes every holder of every object
        it visits; under a lazy store a plain :meth:`value` would
        allocate a record per probe and defeat the laziness.  ``peek``
        answers from the materialised record when there is one, from
        ``initial_value`` for a resident-but-untouched object, and raises
        ``KeyError`` for a non-resident one.  ``resident=True`` says the
        caller has the directory's word already, so a lazy store need not
        ask again; an eager store without the record still raises.
        """
        record = self._records.get(oid)
        if record is not None:
            return record.value
        if self._resident is not None and (
            resident or (0 <= oid < self.db_size and self._resident(oid))
        ):
            return self._initial_value
        raise KeyError(oid)

    def write(self, oid: int, value: Any, ts: Timestamp) -> Record:
        """Install ``value`` with timestamp ``ts`` as the committed version."""
        record = self.read(oid)
        record.value = value
        record.ts = ts
        return record

    def apply(self, oid: int, transform: Callable[[Any], Any], ts: Timestamp) -> Record:
        """Apply a pure transform to the current value (commutative ops)."""
        record = self.read(oid)
        record.value = transform(record.value)
        record.ts = ts
        return record

    def restore(self, oid: int, value: Any, ts: Timestamp) -> None:
        """Undo hook used by the WAL: reinstate an earlier version.

        A no-op when the object is no longer resident here: it migrated
        away while the writing transaction was in flight, so the
        authoritative copy travelled to the new holder and reinstating a
        local version would resurrect a replica the directory no longer
        routes to (and crash the undo with a ``KeyError`` on a lazy
        store whose residency predicate already excludes the object).
        """
        if oid not in self:
            return
        record = self.read(oid)
        record.value = value
        record.ts = ts

    # ------------------------------------------------------------------ #
    # migration hooks
    # ------------------------------------------------------------------ #

    def adopt(self, oid: int, value: Any, ts: Timestamp) -> Record:
        """Install a record shipped from another node (shard migration).

        Bypasses the residency predicate — the directory has already been
        rebound, and the predicate closure sees the post-move membership.
        If the object was touched here while the transfer was in flight,
        the newer timestamp wins (the Thomas write rule, same as replica
        updates).
        """
        record = self._records.get(oid)
        if record is None:
            record = self._records[oid] = Record(oid=oid, value=value, ts=ts)
        elif ts > record.ts:
            record.value = value
            record.ts = ts
        return record

    def evict(self, oid: int) -> None:
        """Drop ``oid``'s record (migration source). Missing oid is a no-op
        for a lazy store that never materialised it."""
        self._records.pop(oid, None)

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #

    def oids(self) -> Iterable[int]:
        """The object identifiers *logically* resident at this node."""
        if self._resident is None:
            return self._records.keys()
        resident = self._resident
        return [
            oid for oid in range(self.db_size)
            if oid in self._records or resident(oid)
        ]

    def snapshot(self) -> Dict[int, Any]:
        """Map oid -> value for divergence comparisons between nodes.

        Logical view: a lazy store reports ``initial_value`` for resident
        objects it never materialised (allocating nothing permanent).
        """
        if self._resident is None:
            return {oid: rec.value for oid, rec in self._records.items()}
        return {oid: self.peek(oid) for oid in self.oids()}

    def materialized_oids(self) -> Iterable[int]:
        """Objects with an allocated record here (all an audit visits)."""
        return self._records.keys()

    @property
    def materialized(self) -> int:
        """Records actually allocated (== resident for an eager store)."""
        return len(self._records)

    def __len__(self) -> int:
        """Materialised records (== resident count for an eager store)."""
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def __contains__(self, oid: int) -> bool:
        if oid in self._records:
            return True
        return (
            self._resident is not None
            and 0 <= oid < self.db_size
            and self._resident(oid)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ObjectStore node={self.node_id} size={self.db_size}>"


def divergence(stores: Iterable[ObjectStore]) -> int:
    """Number of objects whose value differs across the given stores.

    This is the paper's "system delusion" metric: after quiescence and full
    propagation, any nonzero divergence means the replicas failed to
    converge.

    All stores must hold the same keyspace.  Comparing shards holding
    different objects would either silently report phantom agreement (a
    missing key looks like "no difference") or phantom divergence; under
    partial replication use the system-level
    :meth:`~repro.replication.base.ReplicatedSystem.divergence`, which
    compares each object across its own replica set.
    """
    snapshots = [store.snapshot() for store in stores]
    if len(snapshots) < 2:
        return 0
    first, rest = snapshots[0], snapshots[1:]
    base_keys = first.keys()
    for index, snap in enumerate(rest, start=1):
        if snap.keys() != base_keys:
            extra = len(snap.keys() - base_keys)
            missing = len(base_keys - snap.keys())
            raise ConfigurationError(
                "divergence() needs identical keyspaces at every store, but "
                f"store #{index} differs from store #0 ({missing} missing, "
                f"{extra} extra objects) — these look like partial-replication "
                "shards; compare per replica set via system.divergence()"
            )
    differing = 0
    for oid, val in first.items():
        if any(snap[oid] != val for snap in rest):
            differing += 1
    return differing
