"""Event primitives for the discrete-event engine.

Two kinds of objects can be yielded by a simulation process:

* :class:`Timeout` — resume after a fixed amount of virtual time.  Plain
  sleeps never allocate an event: the engine pushes a timer entry carrying
  the process directly (see ``Engine._bind``).
* :class:`SimEvent` — a one-shot event that some other component will either
  :meth:`~SimEvent.succeed` or :meth:`~SimEvent.fail`.  Failing an event makes
  the waiting process receive the exception at its ``yield`` statement, which
  is how the deadlock detector aborts a victim that is parked on a lock queue.

Hot-path design: a process parked on an event is recorded in the event's
*waiter list* — just the :class:`~repro.sim.process.Process` object, no
closure.  Settling walks the waiter list and schedules each process's
``_step`` directly, so the resume path allocates nothing beyond the heap
entry.  ``add_callback`` remains for non-process observers (liveness
tracking, tests) and is kept lazily ``None`` because most events never
have one.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional

from repro.exceptions import SimulationError


class EventState(enum.Enum):
    """Lifecycle of a :class:`SimEvent`."""

    PENDING = "pending"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


_PENDING = EventState.PENDING


class _TimerWait:
    """Sentinel for ``Process.waiting_on`` during a plain timeout sleep.

    A sleeping process has no event object to park on — the heap entry *is*
    the wait — so ``waiting_on`` holds this singleton instead.  Interrupting
    such a process invalidates the timer via its generation counter rather
    than by removing a callback.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<timer-wait>"


TIMER_WAIT = _TimerWait()


class Timeout:
    """A request to sleep for ``delay`` units of virtual time.

    Instances are immutable value objects; the engine interprets them when a
    process yields one (and caches them by delay — see ``Engine.timeout``).
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if not delay >= 0:  # also refuses NaN, which would poison the heap
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class SimEvent:
    """A one-shot event that processes can wait on.

    An event starts :attr:`~EventState.PENDING` and is settled exactly once,
    either with a value (:meth:`succeed`) or an exception (:meth:`fail`).
    Settling wakes every waiting process (scheduling its next step at the
    current instant, in park order) and then runs any registered callbacks;
    callbacks added after settling are invoked immediately.

    The class is deliberately tiny — no ``AnyOf``/``AllOf`` composition — the
    replication protocols only ever wait on single events.
    """

    __slots__ = ("state", "value", "exception", "_callbacks", "_waiters", "name")

    def __init__(self, name: str = ""):
        self.state = EventState.PENDING
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._callbacks: Optional[List[Callable[["SimEvent"], None]]] = None
        self._waiters: Optional[list] = None  # parked Process objects
        self.name = name

    @property
    def pending(self) -> bool:
        return self.state is _PENDING

    @property
    def settled(self) -> bool:
        return self.state is not _PENDING

    def succeed(self, value: Any = None) -> "SimEvent":
        """Settle the event successfully, waking all waiters with ``value``."""
        if self.state is not _PENDING:
            raise SimulationError(f"event {self} already settled")
        self.state = EventState.SUCCEEDED
        self.value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Settle the event with an exception.

        Every waiting process receives ``exception`` at its ``yield``.
        """
        if self.state is not _PENDING:
            raise SimulationError(f"event {self} already settled")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.state = EventState.FAILED
        self.exception = exception
        self._dispatch()
        return self

    def add_waiter(self, process) -> None:
        """Park ``process`` on this event (engine use; event must be pending)."""
        waiters = self._waiters
        if waiters is None:
            self._waiters = [process]
        else:
            waiters.append(process)

    def remove_waiter(self, process) -> None:
        """Unpark ``process`` (interrupt path); missing waiters are ignored."""
        waiters = self._waiters
        if waiters is not None:
            try:
                waiters.remove(process)
            except ValueError:
                pass

    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Register ``callback`` to run when the event settles.

        If the event is already settled the callback runs immediately.
        """
        if self.state is not _PENDING:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Deregister a callback (used when an observer loses interest)."""
        if self._callbacks is not None:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    def _dispatch(self) -> None:
        # a woken waiter is runnable, not waiting, until its step runs:
        # clearing ``waiting_on`` here means an interrupt or kill landing
        # in between cannot throw into a wait that is already over
        waiters, self._waiters = self._waiters, None
        if waiters:
            exception = self.exception
            if exception is not None:
                for process in waiters:
                    process.waiting_on = None
                    engine = process.engine
                    engine.schedule_now(engine._step, process, None, exception)
            else:
                value = self.value
                for process in waiters:
                    process.waiting_on = None
                    engine = process.engine
                    engine.schedule_now(engine._step, process, value, None)
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = f" {self.name!r}" if self.name else ""
        return f"<SimEvent{label} {self.state.value}>"
