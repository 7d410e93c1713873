"""The explicit engine interface: what every kernel must provide.

Two kernels live in this repo — the slotted hot-path
:class:`~repro.sim.engine.Engine` that runs every simulation, and the
asyncio-backed :class:`~repro.service.wallclock.WallClockEngine` that serves
real traffic.  Strategies, the fault injector, and the observability layers
were written against the interface ``Engine`` happened to have; this module
makes that contract explicit so a new kernel cannot silently drift: the
conformance test (``tests/test_engine_protocol.py``) checks both kernels
against it structurally.

:class:`EngineProtocol` is the whole contract: the clock, ``schedule`` /
``schedule_now`` / ``schedule_at`` (fault timetables, telemetry ticks),
``timeout``, ``event``, ``process`` and its trusted-spawn ``_spawn`` fast
path (network delivery, transaction submission), ``run``, ``peek``,
``queued_events``, ``events_scheduled`` and the ``profiler`` dispatch tap.

Annotations across ``network/``, ``storage/``, ``txn/``, ``replication/``,
``obs/``, and ``faults/`` reference :class:`EngineProtocol` rather than the
concrete :class:`Engine`, which is what lets
:class:`~repro.service.wallclock.WallClockEngine` drive every strategy
unmodified on wall-clock time.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Generator,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.sim.events import SimEvent, Timeout
from repro.sim.process import Process


@runtime_checkable
class EngineProtocol(Protocol):
    """Structural type of a full simulation/serving kernel.

    ``@runtime_checkable`` makes ``isinstance(engine, EngineProtocol)`` a
    member-presence check, which is exactly the "did the new kernel forget
    a method?" question the conformance test asks.
    """

    #: the clock — virtual seconds for the sim kernels, seconds since
    #: service start for the wall-clock kernel
    now: float
    #: optional :class:`~repro.obs.profiler.Profiler` dispatch tap
    profiler: Any

    # ------------------------------------------------------------------ #
    # scheduling primitives
    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` time units."""
        ...

    def schedule_now(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, FIFO after peers."""
        ...

    def schedule_at(self, at: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time ``at``."""
        ...

    def timeout(self, delay: float) -> Timeout:
        """A (possibly cached) sleep token for ``yield``."""
        ...

    def event(self, name: str = "") -> SimEvent:
        """A fresh pending one-shot event."""
        ...

    # ------------------------------------------------------------------ #
    # processes
    # ------------------------------------------------------------------ #

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn ``generator`` as a process (validates the argument)."""
        ...

    def _spawn(self, generator: Generator, name: str = "") -> Process:
        """Trusted-caller :meth:`process` without the generator check."""
        ...

    # ------------------------------------------------------------------ #
    # driving & introspection
    # ------------------------------------------------------------------ #

    def run(self, until: Optional[float] = None) -> float:
        """Drive the queue synchronously (wall-clock kernels may refuse)."""
        ...

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None when drained."""
        ...

    @property
    def queued_events(self) -> int:
        """Live callbacks currently scheduled."""
        ...

    @property
    def events_scheduled(self) -> int:
        """Total callbacks ever scheduled."""
        ...
