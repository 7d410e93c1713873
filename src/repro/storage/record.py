"""Versioned database records.

The paper's model database is "a fixed set of objects"; a record is one such
object's replica at one node.  Each record carries the Lamport timestamp of
its most recent committed update (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.storage.versioning import ZERO, Timestamp, format_stamp


@dataclass(slots=True)
class Record:
    """One object replica: its value and the stamp of that value.

    Slotted, with no default factory: one is built per written replica.
    The object id is the key the store files the record under, so the
    record does not repeat it.

    Attributes:
        value: the current committed value.
        ts: Lamport timestamp of the most recent committed update.
    """

    value: Any = 0
    ts: Timestamp = ZERO

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Record(value={self.value!r}, ts={format_stamp(self.ts)})"
