"""Simulation processes: generators driven by the engine.

A :class:`Process` wraps a generator and *is itself* a
:class:`~repro.sim.events.SimEvent` — it settles when the generator returns
(success, with the generator's return value) or raises (failure).  That lets
one process wait for another simply by yielding it, which is how a
transaction coordinator waits for its participants.

Waiting is allocation-free: parking on an event appends the process to the
event's waiter list, and a plain timeout sleep is just a heap entry tagged
with the process and its current *timer generation*.  Interrupting a sleeper
bumps the generation, which invalidates the heap entry in place — the engine
drops it eagerly (see ``Engine._resume_timer``).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.exceptions import ProcessKilled, SimulationError
from repro.sim.events import _PENDING, TIMER_WAIT, SimEvent


class Process(SimEvent):
    """A running simulation process.

    Created via :meth:`repro.sim.engine.Engine.process`; user code never
    instantiates this directly.

    Attributes:
        generator: the underlying generator being stepped.
        waiting_on: the event this process is currently parked on, if any;
            the :data:`~repro.sim.events.TIMER_WAIT` sentinel during a plain
            timeout sleep.
    """

    __slots__ = ("generator", "engine", "waiting_on", "_timer_gen")

    def __init__(self, engine, generator: Generator[Any, Any, Any], name: str = ""):
        # SimEvent's fields, set in place: every transaction and every
        # handler is a process, so the super() call was a frame per spawn
        self.state = _PENDING
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._callbacks = None
        self._waiters = None
        self.name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        self.engine = engine
        self.waiting_on: Optional[SimEvent] = None
        self._timer_gen = 0  # bumped to invalidate an armed sleep

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self.pending

    def interrupt(self, exception: Optional[BaseException] = None) -> None:
        """Throw ``exception`` into the process at its current ``yield``.

        The process must be parked on an event (a timeout or a pending
        :class:`SimEvent`).  Interrupting a finished process is a no-op;
        interrupting the currently-executing process is an error — raise in
        place instead.
        """
        if self.settled:
            return
        if exception is None:
            exception = ProcessKilled(f"process {self.name!r} interrupted")
        target = self.waiting_on
        if target is None:
            raise SimulationError(
                f"cannot interrupt process {self.name!r}: it is not waiting "
                "(interrupting the running process is not allowed)"
            )
        self.waiting_on = None
        if target is TIMER_WAIT:
            # invalidate the sleep: the stale heap entry no longer matches
            # the generation, and the engine drops it without running it
            self._timer_gen += 1
            self.engine._timer_cancelled()
        else:
            target.remove_waiter(self)
        self.engine.schedule_now(self.engine._step, self, None, exception)

    def kill(self, exception: Optional[BaseException] = None) -> bool:
        """Best-effort :meth:`interrupt` for fault injection.

        Throws ``exception`` into the process if it is parked on an event
        and reports True.  A settled process, or one that is currently
        runnable (queued to step at this instant, e.g. freshly spawned), is
        left alone and False is returned — runnable processes must be
        stopped by data-level guards (a crashed WAL refusing writes) rather
        than by rewriting the engine's queue.
        """
        if self.settled or self.waiting_on is None:
            return False
        self.interrupt(exception)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {self.state.value}>"
