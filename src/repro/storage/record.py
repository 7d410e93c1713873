"""Versioned database records.

The paper's model database is "a fixed set of objects"; a record is one such
object's replica at one node.  Each record carries the Lamport timestamp of
its most recent committed update (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.storage.versioning import Timestamp


@dataclass(slots=True)
class Record:
    """One object replica: value plus versioning metadata.

    Slotted, with no default factory: one is built per touched replica.

    Attributes:
        oid: object identifier, stable across all replicas.
        value: the current committed value.
        ts: Lamport timestamp of the most recent committed update.
    """

    oid: int
    value: Any = 0
    ts: Timestamp = Timestamp.ZERO

    def copy(self) -> "Record":
        """A shallow snapshot (values in this library are immutable scalars
        or tuples, so shallow is enough)."""
        return Record(oid=self.oid, value=self.value, ts=self.ts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Record(oid={self.oid}, value={self.value!r}, ts={self.ts})"
