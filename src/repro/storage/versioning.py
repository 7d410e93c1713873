"""Lamport timestamps.

Figure 4 of the paper tags every lazy replica update with the *old* object
timestamp so the receiver can tell whether applying the update is safe.  For
that test to be meaningful across nodes the timestamps must be unique and
totally ordered; wall-clock time is neither in a simulation nor in practice,
so we use Lamport pairs ``(counter, node_id)``.

A pair is packed into one ``int``, ``(counter << NODE_BITS) | (node_id +
1)``: int order is exactly the pairs' lexicographic order, so stamps
compare, hash and ``max`` as plain ints, and every replica of one write
holds the same small object rather than a tuple of its own.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

#: a Lamport timestamp: ``(counter << NODE_BITS) | (node_id + 1)``
Timestamp = int

#: bits holding ``node_id + 1``: node ids ``-1 .. MAX_NODE_ID`` fit, which
#: covers every network the library builds (the placement sweep's 10 000
#: nodes included); a stamp with a counter below ``2**44`` is one 32-byte int
NODE_BITS = 16
_NODE_MASK = (1 << NODE_BITS) - 1
MAX_NODE_ID = _NODE_MASK - 1

#: the genesis stamp ``(0, -1)``: precedes every tick at every node
ZERO: Timestamp = 0


def _node_low(node_id: int) -> int:
    """``node_id + 1``, the low bits of every stamp ``node_id`` makes."""
    if not -1 <= node_id <= MAX_NODE_ID:
        raise ConfigurationError(
            f"node id {node_id} does not fit a timestamp's {NODE_BITS} "
            f"node bits (-1 .. {MAX_NODE_ID})"
        )
    return node_id + 1


def stamp(counter: int, node_id: int) -> Timestamp:
    """The timestamp of the pair ``(counter, node_id)``."""
    if counter < 0:
        raise ConfigurationError(f"timestamp counter must be >= 0, got {counter}")
    return (counter << NODE_BITS) | _node_low(node_id)


def counter_of(ts: Timestamp) -> int:
    """The Lamport counter of ``ts``."""
    return ts >> NODE_BITS


def node_of(ts: Timestamp) -> int:
    """The node that made ``ts`` (``-1`` for :data:`ZERO`)."""
    return (ts & _NODE_MASK) - 1


def format_stamp(ts: Timestamp) -> str:
    """``ts`` as ``"counter@node"``."""
    return f"{counter_of(ts)}@{node_of(ts)}"


class TimestampGenerator:
    """Per-node Lamport clock.

    ``tick()`` produces a fresh local timestamp; ``witness(ts)`` advances the
    clock past any timestamp observed on an incoming message, preserving the
    happened-before order of the paper's lazy update streams.  A node id
    that does not fit :data:`NODE_BITS` raises ``ConfigurationError``.
    """

    def __init__(self, node_id: int):
        self._low = _node_low(node_id)
        self.node_id = node_id
        self._counter = 0

    def tick(self) -> Timestamp:
        """Produce the next local timestamp."""
        self._counter += 1
        return (self._counter << NODE_BITS) | self._low

    def witness(self, ts: Timestamp) -> None:
        """Advance the local clock to at least ``ts``'s counter."""
        counter = ts >> NODE_BITS
        if counter > self._counter:
            self._counter = counter

    @property
    def current_counter(self) -> int:
        return self._counter
