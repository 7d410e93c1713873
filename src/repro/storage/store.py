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

    Residency is a membership question and a record materialises on first
    touch from ``initial_value``: ``resident=None`` means the whole
    ``oid`` space (a full replica, a two-tier mobile), a predicate
    (normally over ``placement.replicas``) means the node's shard.
    Building a store allocates nothing, so a million-object replica costs
    only what its transactions read; ``len(store)`` / iteration count
    *materialised* records while :meth:`oids` / :meth:`snapshot` / ``in``
    answer for the *logical* replica.  Touching a non-resident object
    raises ``KeyError``, which is a routing bug, not a data condition.

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
        resident: Optional[Callable[[int], bool]] = None,
    ):
        if db_size <= 0:
            raise ConfigurationError(f"db_size must be positive, got {db_size}")
        self.node_id = node_id
        self.db_size = db_size
        self._initial_value = initial_value
        self._resident = resident
        self._records: Dict[int, Record] = {}

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #

    def _holds(self, oid: int) -> bool:
        """Is ``oid`` logically resident, materialised or not?"""
        resident = self._resident
        return 0 <= oid < self.db_size and (resident is None or resident(oid))

    def _miss(self, oid: int) -> Record:
        """Handle a ``_records`` miss: materialise a resident object or
        re-raise."""
        if self._holds(oid):
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
        it visits; a plain :meth:`value` would allocate a record per
        probe and defeat the laziness.  ``peek`` answers from the
        materialised record when there is one, from ``initial_value``
        for a resident-but-untouched object, and raises ``KeyError`` for
        a non-resident one.  ``resident=True`` says the caller has the
        directory's word already, so the store need not ask again.
        """
        record = self._records.get(oid)
        if record is not None:
            return record.value
        if resident or self._holds(oid):
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
        routes to (and crash the undo with a ``KeyError``, the residency
        predicate already excluding the object).
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
        """Drop ``oid``'s record (migration source); a no-op for an
        object never materialised here."""
        self._records.pop(oid, None)

    # ------------------------------------------------------------------ #
    # observation
    # ------------------------------------------------------------------ #

    def oids(self) -> Iterable[int]:
        """The object identifiers *logically* resident at this node."""
        resident = self._resident
        if resident is None:
            return range(self.db_size)
        return [
            oid for oid in range(self.db_size)
            if oid in self._records or resident(oid)
        ]

    def snapshot(self) -> Dict[int, Any]:
        """Map oid -> value for divergence comparisons between nodes.

        Logical view: resident objects never materialised report
        ``initial_value`` (allocating nothing permanent).
        """
        records, initial = self._records, self._initial_value
        return {
            oid: records[oid].value if oid in records else initial
            for oid in self.oids()
        }

    def materialized_oids(self) -> Iterable[int]:
        """Objects with an allocated record here (all an audit visits)."""
        return self._records.keys()

    @property
    def materialized(self) -> int:
        """Records actually allocated: what has been touched here."""
        return len(self._records)

    def __len__(self) -> int:
        """Materialised records, not the logical resident count."""
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def __contains__(self, oid: int) -> bool:
        return oid in self._records or self._holds(oid)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ObjectStore node={self.node_id} size={self.db_size}>"

