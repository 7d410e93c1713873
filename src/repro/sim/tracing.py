"""Structured event tracing for simulated systems.

A :class:`Tracer` collects timestamped, categorised events — transaction
lifecycle, lock waits, deadlocks, reconciliations, faults — so a run can be
inspected after the fact.  Recording is cheap and optional; systems accept a
tracer and emit into it at the same points the metrics counters tick.

Example::

    tracer = Tracer(categories={"deadlock", "reconcile"})
    system = LazyGroupSystem(..., tracer=tracer)
    ...
    print(tracer.format_events())
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Set


@dataclass(frozen=True)
class TraceEvent:
    """One trace record."""

    time: float
    category: str
    detail: Dict[str, Any]

    def format(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:12.6f}] {self.category:<12} {fields}"


class Tracer:
    """Collects :class:`TraceEvent` records, with category filtering.

    Args:
        categories: record only these categories (None = record all).
        limit: ring-buffer size; oldest events are dropped beyond it
            (``None`` keeps every event).
    """

    #: every category the simulator emits: exactly the literal categories
    #: passed to ``_trace`` under ``repro`` (a test pins the equality)
    KNOWN_CATEGORIES = (
        "abort", "cert-abort", "certify", "commit", "crash", "deadlock",
        "fault", "migrate", "partition", "recover", "reconcile", "reject",
        "validation-abort", "wait",
    )

    def __init__(
        self,
        categories: Optional[Iterable[str]] = None,
        limit: Optional[int] = 100_000,
    ):
        self.categories: Optional[Set[str]] = (
            set(categories) if categories is not None else None
        )
        self.limit = limit
        # deque(maxlen=...) evicts the oldest event in O(1); a plain list's
        # pop(0) is O(n) per event once the buffer is full
        self._events: Deque[TraceEvent] = deque(maxlen=limit)
        self.dropped = 0

    def wants(self, category: str) -> bool:
        return self.categories is None or category in self.categories

    def emit(self, time: float, category: str, **detail: Any) -> None:
        """Record one event (no-op when the category is filtered out)."""
        if not self.wants(category):
            return
        event = TraceEvent(time=time, category=category, detail=detail)
        if len(self._events) == self.limit:
            self.dropped += 1
        self._events.append(event)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def count(self, category: str) -> int:
        return sum(1 for e in self._events if e.category == category)

    def timeline(self, txn_id: int) -> List[TraceEvent]:
        """Every event mentioning one transaction, in time order."""
        return [e for e in self._events if e.detail.get("txn") == txn_id]

    def format_events(self) -> str:
        return "\n".join(e.format() for e in self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tracer events={len(self._events)} dropped={self.dropped}>"
