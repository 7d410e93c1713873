"""The wall-clock engine: the sim kernel's Process API on real time.

:class:`WallClockEngine` subclasses the slotted hot-path
:class:`~repro.sim.engine.Engine` and keeps its entire machinery — the heap,
timer generations, dead-entry accounting, the profiler tap — but reads the
clock from ``time.monotonic`` instead of jumping it to the next heap entry.
Every strategy, the fault injector, and the telemetry/profiler hooks run
unmodified: they only ever call the
:class:`~repro.sim.protocol.EngineProtocol` surface, and this class conforms
to all of it except synchronous :meth:`run` (which raises — wall-clock time
cannot be driven by a blocking loop inside asyncio).

Integration with asyncio is cooperative, not threaded:

* :meth:`run_async` is a coroutine that alternates between *dispatching*
  every due heap entry (:meth:`dispatch_due`) and *sleeping* until the next
  deadline on an :class:`asyncio.Event`, so socket IO interleaves with
  engine work on one loop and there is no cross-thread state to lock.
* :meth:`pump` is the synchronous entry beside it: a socket callback hands
  in its admissions and everything they made due runs in that callback's
  frame; the parked driver is woken only for what is left (a timer, a
  burst over the batch bound).  Timers, ``message_delay > 0`` and the
  telemetry ticker stay the driver's.
* Other external code may call ``schedule`` / ``schedule_now`` /
  ``process`` at any await point; the override refreshes the clock and
  wakes the sleeper so new work is picked up immediately instead of at
  the old deadline.
* ``now`` is *seconds since the engine first observed the clock*, monotone
  non-decreasing, so virtual-time consumers (commit timestamps, telemetry
  windows, Lamport tie-breaks) see the same shape of clock they see in the
  simulator.

Determinism note: this engine is additive.  Nothing in the simulator
defaults to it — ``SystemSpec(engine=None)`` still constructs the
deterministic :class:`~repro.sim.engine.Engine`, and the byte-identical
determinism goldens pin that (see ``tests/test_wallclock_engine.py``).
"""

from __future__ import annotations

import asyncio
import time
from heapq import heappop
from typing import Any, Callable, Optional

from repro.exceptions import SimulationError
from repro.sim.engine import Engine

#: heap entries dispatched before yielding control back to the asyncio loop,
#: bounding how long a burst of engine work can starve socket IO
_MAX_DISPATCH_BATCH = 2000


class WallClockEngine(Engine):
    """An :class:`Engine` whose clock is real (monotonic) time.

    Args:
        time_source: monotonic float-seconds clock, injectable for tests.
    """

    def __init__(self, time_source: Callable[[], float] = time.monotonic):
        super().__init__()
        self._time_source = time_source
        self._origin: Optional[float] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._sleeping = False
        self._dispatching = False

    # ------------------------------------------------------------------ #
    # the clock
    # ------------------------------------------------------------------ #

    def _refresh_now(self) -> float:
        """Advance ``now`` to the wall clock (never backwards)."""
        wall = self._time_source()
        if self._origin is None:
            self._origin = wall
        elapsed = wall - self._origin
        if elapsed > self.now:
            self.now = elapsed
        return self.now

    # ------------------------------------------------------------------ #
    # scheduling: refresh the clock for external callers, wake the sleeper
    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        # inside the dispatch loop ``now`` is already fresh; outside it
        # (a socket handler between awaits) the clock may have drifted
        if not self._dispatching:
            self._refresh_now()
            if self._sleeping:
                self._wakeup.set()
        super().schedule(delay, callback, *args)

    def schedule_now(self, callback: Callable, *args: Any) -> None:
        if not self._dispatching:
            self._refresh_now()
            if self._sleeping:
                self._wakeup.set()
        super().schedule_now(callback, *args)

    def kick(self) -> None:
        """Wake :meth:`run_async` out of its deadline sleep early.

        Needed after out-of-band state changes that do not go through
        ``schedule`` — setting the stop event, or settling a SimEvent whose
        waiters were already queued.
        """
        if self._sleeping:
            self._wakeup.set()

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #

    def run(self, until: Optional[float] = None) -> float:
        raise SimulationError(
            "WallClockEngine cannot be driven synchronously; "
            "await run_async() inside an asyncio event loop "
            "(use the default Engine for simulation runs)"
        )

    def dispatch_due(self, max_batch: int = _MAX_DISPATCH_BATCH) -> int:
        """Dispatch the entries due by now, at most ``max_batch``; how many."""
        queue = self._queue
        resume_timer = self._resume_timer
        now = self._refresh_now()
        dispatched = 0
        self._dispatching = True
        try:
            while queue:
                head = queue[0]
                if head[2] is resume_timer:
                    entry_args = head[3]
                    if entry_args[1] != entry_args[0]._timer_gen:
                        # dead timer from an interrupted wait
                        heappop(queue)
                        self._dead_timers -= 1
                        continue
                if head[0] > now:
                    break
                heappop(queue)
                profiler = self.profiler
                if profiler is None:
                    head[2](*head[3])
                else:
                    profiler.dispatch(head[2], head[3])
                dispatched += 1
                if dispatched >= max_batch:
                    break
        finally:
            self._dispatching = False
        return dispatched

    def pump(
        self, admit: Callable[[], None], max_batch: int = _MAX_DISPATCH_BATCH
    ) -> None:
        """Run ``admit`` and everything it made due, in the caller's frame.

        ``admit`` schedules work (``process`` / ``schedule``) under one
        reading of the clock and wakes nobody; what it made due is then
        dispatched here, synchronously, exactly as :meth:`run_async` would
        have.  The parked driver is woken only for what is left over — a
        timer, or a burst beyond ``max_batch``.  Not for use inside a
        dispatch: work scheduled there already belongs to the running one.
        """
        self._refresh_now()
        self._dispatching = True
        try:
            admit()
            self.dispatch_due(max_batch)
        finally:
            self._dispatching = False
            if self._queue:
                self.kick()

    async def run_async(
        self,
        stop: Optional[asyncio.Event] = None,
        max_batch: int = _MAX_DISPATCH_BATCH,
    ) -> float:
        """Drive the queue on wall-clock time until done.

        Without ``stop`` this behaves like :meth:`Engine.run`: it returns
        when the queue drains.  With ``stop`` it idles through empty-queue
        periods (a server waiting for traffic) and returns once ``stop`` is
        set — the setter must also :meth:`kick` if the engine might be
        parked in an indefinite sleep.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._wakeup = asyncio.Event()
        try:
            while True:
                if stop is not None and stop.is_set():
                    return self.now
                if self.dispatch_due(max_batch) >= max_batch:
                    # big burst: let socket handlers breathe, then continue
                    await asyncio.sleep(0)
                    continue
                next_at = self.peek()
                if next_at is None:
                    if stop is None:
                        return self.now  # drained, nothing can wake us
                    delay = None  # idle until kicked
                else:
                    delay = next_at - self._refresh_now()
                    if delay <= 0:
                        continue
                await self._sleep(delay)
        finally:
            self._running = False
            self._sleeping = False

    async def _sleep(self, delay: Optional[float]) -> None:
        """Park until ``delay`` elapses or something kicks the engine.

        One wake-up mechanism: the deadline is a ``call_later`` handle that
        sets the same event a kick sets, cancelled when the kick came
        first.  No wakeup is ever lost: asyncio is single-threaded, and
        between reading the queue state and awaiting here there is no await
        point, so any ``schedule``/``kick`` ordered before this sleep
        already ran and any ordered after will find ``_sleeping`` set.
        """
        self._wakeup.clear()
        self._sleeping = True
        timer = None
        if delay is not None:
            timer = asyncio.get_running_loop().call_later(
                delay, self._wakeup.set
            )
        try:
            await self._wakeup.wait()
        finally:
            self._sleeping = False
            if timer is not None:
                timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<WallClockEngine now={self.now:.6g} "
            f"queued={self.queued_events} "
            f"{'running' if self._running else 'stopped'}>"
        )
