"""Lamport timestamps.

Figure 4 of the paper tags every lazy replica update with the *old* object
timestamp so the receiver can tell whether applying the update is safe.  For
that test to be meaningful across nodes the timestamps must be unique and
totally ordered; wall-clock time is neither in a simulation nor in practice,
so we use Lamport pairs ``(counter, node_id)``.
"""

from __future__ import annotations

from typing import NamedTuple


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

