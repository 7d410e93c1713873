"""Timestamps and version vectors.

Figure 4 of the paper tags every lazy replica update with the *old* object
timestamp so the receiver can tell whether applying the update is safe.  For
that test to be meaningful across nodes the timestamps must be unique and
totally ordered; wall-clock time is neither in a simulation nor in practice,
so we use Lamport pairs ``(counter, node_id)``.

Section 6 describes Microsoft Access keeping a *version vector* with each
replicated record and resolving pairwise exchanges by recency; the
:class:`VersionVector` here supports that convergent scheme (and dominance
testing to distinguish genuine conflicts from stale echoes).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, NamedTuple, Optional


class Timestamp(NamedTuple):
    """A Lamport timestamp: ``(counter, node_id)``.

    Ordering is lexicographic, so timestamps are totally ordered and two
    distinct events never compare equal (node id breaks counter ties).
    ``Timestamp.ZERO``, assigned below the class, precedes every tick.
    """

    counter: int
    node_id: int

    def next_at(self, node_id: int) -> "Timestamp":
        """The smallest timestamp at ``node_id`` strictly after ``self``."""
        return Timestamp(self.counter + 1, node_id)

    def __str__(self) -> str:
        return f"{self.counter}@{self.node_id}"


Timestamp.ZERO = Timestamp(0, -1)

#: the C constructor behind every ``NamedTuple``: ``_new(T, fields)`` is
#: ``T(*fields)`` without the generated ``__new__``'s Python frame
_new = tuple.__new__


class TimestampGenerator:
    """Per-node Lamport clock.

    ``tick()`` produces a fresh local timestamp; ``witness(ts)`` advances the
    clock past any timestamp observed on an incoming message, preserving the
    happened-before order of the paper's lazy update streams.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._counter = 0

    def tick(self) -> Timestamp:
        """Produce the next local timestamp."""
        self._counter += 1
        return _new(Timestamp, (self._counter, self.node_id))

    def witness(self, ts: Timestamp) -> None:
        """Advance the local clock to at least ``ts.counter``."""
        if ts.counter > self._counter:
            self._counter = ts.counter

    @property
    def current_counter(self) -> int:
        return self._counter


class VersionVector:
    """A map node_id -> update counter, with dominance comparison.

    Used by the convergent (section 6) schemes.  ``a.dominates(b)`` means
    ``a`` has seen every update ``b`` has; when neither dominates, the
    versions are *concurrent* and a reconciliation rule must pick a winner.
    """

    __slots__ = ("_clocks",)

    def __init__(self, clocks: Optional[Mapping[int, int]] = None):
        self._clocks: Dict[int, int] = dict(clocks or {})

    def get(self, node_id: int) -> int:
        return self._clocks.get(node_id, 0)

    def bump(self, node_id: int) -> "VersionVector":
        """Return a copy with ``node_id``'s component incremented."""
        clocks = dict(self._clocks)
        clocks[node_id] = clocks.get(node_id, 0) + 1
        return VersionVector(clocks)

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Component-wise maximum of two vectors."""
        clocks = dict(self._clocks)
        for node_id, counter in other._clocks.items():
            if counter > clocks.get(node_id, 0):
                clocks[node_id] = counter
        return VersionVector(clocks)

    def dominates(self, other: "VersionVector") -> bool:
        """True when self >= other component-wise."""
        return all(self.get(n) >= c for n, c in other._clocks.items())

    def concurrent_with(self, other: "VersionVector") -> bool:
        """True when neither vector dominates the other."""
        return not self.dominates(other) and not other.dominates(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        nodes = set(self._clocks) | set(other._clocks)
        return all(self.get(n) == other.get(n) for n in nodes)

    def __hash__(self) -> int:
        return hash(tuple(sorted((n, c) for n, c in self._clocks.items() if c)))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._clocks.items()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{n}:{c}" for n, c in self)
        return f"VersionVector({{{inner}}})"
