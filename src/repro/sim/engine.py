"""The discrete-event simulation engine.

The engine owns a virtual clock and a priority queue of scheduled callbacks.
Processes (generators) yield :class:`~repro.sim.events.Timeout`,
:class:`~repro.sim.events.SimEvent`, or :class:`~repro.sim.process.Process`
objects; the engine resumes them when the awaited thing happens.

Events scheduled for the same instant run in FIFO order (a monotonically
increasing sequence number breaks ties), which makes every run fully
deterministic for a given seed.

Hot-path design (see docs/simulator.md, "Kernel architecture & hot path"):

* Resuming a process allocates nothing but its heap entry.  A plain timeout
  sleep is a heap entry carrying ``(process, timer_generation)`` — no
  ``TimerEvent``, no closure; an event wait parks the process on the event's
  waiter list.
* A sleep costs one event when it can.  A deadline that arrives with no
  other entry queued at its instant steps the process straight from the run
  loop; only a deadline that shares its instant with a queued peer takes the
  second hop through ``_resume_timer``, which re-queues the step behind that
  peer.  Either way the process resumes at the position FIFO order gives it.
* Cancelled sleeps are invalidated *in place* by bumping the process's timer
  generation.  The engine counts dead entries so :attr:`queued_events` stays
  truthful immediately, drops them at the heap head without advancing the
  clock, and compacts the heap when they pile up.
* ``Timeout`` objects are immutable and cached by delay, so the steady-state
  ``yield engine.timeout(action_time)`` pattern allocates nothing at all.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.sim.events import TIMER_WAIT, EventState, SimEvent, Timeout
from repro.sim.process import Process

_PENDING = EventState.PENDING

#: cache at most this many distinct Timeout delays (workloads use a handful)
_TIMEOUT_CACHE_LIMIT = 256

#: compact the heap when dead timer entries exceed this count *and* half the
#: physical queue — keeps run() O(live) under heavy interrupt churn
_COMPACT_MIN_DEAD = 64


class Engine:
    """A deterministic discrete-event simulator.

    Example::

        engine = Engine()

        def worker():
            yield engine.timeout(2.0)
            return "done"

        proc = engine.process(worker())
        engine.run()
        assert proc.value == "done"
        assert engine.now == 2.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = 0  # next sequence number == callbacks ever scheduled
        self._dead_timers = 0  # invalidated sleep entries still in the heap
        self._running = False
        self._process_count = 0
        self._timeout_cache: Dict[float, Timeout] = {}
        # pin the bound methods once: heap entries are compared to
        # self._resume_timer by identity, and a fresh bound object per
        # attribute access would never match (it also skips a rebind per push)
        self._step = self._step
        self._resume_timer = self._resume_timer
        # optional repro.obs.profiler.Profiler tap on callback dispatch;
        # None keeps the hot loop at a single attribute check
        self.profiler = None

    # ------------------------------------------------------------------ #
    # scheduling primitives
    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` units of virtual time."""
        if not delay >= 0:  # also refuses NaN, which would poison the heap
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, seq, callback, args))

    def schedule_now(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, after queued peers."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now, seq, callback, args))

    def schedule_at(self, at: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``at``.

        Convenience for timetable-style schedules (fault plans, partitions)
        whose events are specified as absolute instants.  ``at`` values that
        land an epsilon *before* ``now`` through float round-off (e.g. an
        accumulated tick schedule) are clamped to "now" instead of raising.
        """
        delay = at - self.now
        if delay < 0.0:
            # relative epsilon: 1e-9 is ~1e7 ULPs at clock magnitudes, far
            # beyond accumulation error but far below any real schedule step
            tolerance = 1e-9 * (abs(at) if abs(at) > 1.0 else 1.0)
            if -delay <= tolerance:
                delay = 0.0
        self.schedule(delay, callback, *args)

    def timeout(self, delay: float) -> Timeout:
        """Create (or reuse) a :class:`Timeout` for ``delay`` time units.

        Timeouts are immutable value objects, so repeated delays — the
        steady-state ``action_time`` sleep — share one cached instance.
        """
        cache = self._timeout_cache
        cached = cache.get(delay)
        if cached is not None:
            return cached
        timeout = Timeout(delay)
        if len(cache) >= _TIMEOUT_CACHE_LIMIT:
            # cache full: hand back an uncached (still correct) Timeout —
            # workloads cycle a small delay set, so evicting would thrash
            # the delays that actually repeat
            return timeout
        cache[delay] = timeout
        return timeout

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh pending :class:`SimEvent`."""
        return SimEvent(name=name)

    # ------------------------------------------------------------------ #
    # processes
    # ------------------------------------------------------------------ #

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``.

        The first step happens at the current simulation instant (not
        immediately within this call), preserving causal ordering between the
        spawner and the spawned.
        """
        if not hasattr(generator, "send"):
            raise SimulationError(
                "process() requires a generator; did you forget to call the "
                "generator function?"
            )
        return self._spawn(generator, name)

    def _spawn(self, generator: Generator, name: str = "") -> Process:
        """Trusted-caller :meth:`process` without the generator check."""
        proc = Process(self, generator, name=name)
        self._process_count += 1
        self.schedule_now(self._step, proc, None, None)
        return proc

    def _step(
        self,
        process: Process,
        send_value: Any,
        throw_exc: Optional[BaseException],
    ) -> None:
        """Advance ``process`` by one yield, then bind its next wait target."""
        if process.state is not _PENDING:
            return
        process.waiting_on = None
        try:
            if throw_exc is not None:
                target = process.generator.throw(throw_exc)
            else:
                target = process.generator.send(send_value)
        except StopIteration as stop:
            process.succeed(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - process death is data
            # KeyboardInterrupt / SystemExit are not: they leave run()
            process.fail(exc)
            return
        try:
            self._bind(process, target)
        except SimulationError as exc:
            process.generator.close()
            process.fail(exc)

    def _bind(self, process: Process, target: Any) -> None:
        """Arrange for ``process`` to resume when ``target`` is ready."""
        if isinstance(target, Timeout):
            # a sleep is just a heap entry: (process, generation) — no event
            # object, no closure; interrupt invalidates it via the generation
            process.waiting_on = TIMER_WAIT
            seq = self._seq
            self._seq = seq + 1
            heappush(
                self._queue,
                (self.now + target.delay, seq, self._resume_timer,
                 (process, process._timer_gen)),
            )
            return
        if isinstance(target, SimEvent):  # includes Process
            if target.state is not _PENDING:
                if target.exception is not None:
                    self.schedule_now(self._step, process, None, target.exception)
                else:
                    self.schedule_now(self._step, process, target.value, None)
                return
            process.waiting_on = target
            target.add_waiter(process)
            return
        raise SimulationError(
            f"process {process.name!r} yielded unsupported object {target!r}; "
            "yield a Timeout, SimEvent, or Process"
        )

    def _resume_timer(self, process: Process, generation: int) -> None:
        """A sleep deadline arrived beside a queued peer: schedule the step.

        The step is scheduled (not run inline) so that peers already queued
        at this instant keep their FIFO position.  :meth:`run` takes this
        hop only when such a peer exists; with none, the step it would push
        is by construction the next entry popped, so ``run`` steps the
        process itself and the order is the same with one event fewer.
        ``WallClockEngine.run_async`` always comes through here.
        """
        if generation != process._timer_gen:
            return  # stale entry that slipped past the queue-head filter
        # the sleep is over: until its step runs the process is runnable,
        # not waiting, so an interrupt cannot land on a timer already spent
        process.waiting_on = None
        self.schedule_now(self._step, process, None, None)

    def _timer_cancelled(self) -> None:
        """Account one invalidated sleep entry; compact the heap if cheap."""
        self._dead_timers += 1
        dead = self._dead_timers
        if dead > _COMPACT_MIN_DEAD and dead * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop invalidated sleep entries from the heap in place."""
        resume_timer = self._resume_timer
        alive = [
            entry
            for entry in self._queue
            if entry[2] is not resume_timer
            or entry[3][1] == entry[3][0]._timer_gen
        ]
        # in-place so a run() loop holding a reference keeps seeing the heap
        self._queue[:] = alive
        heapq.heapify(self._queue)
        self._dead_timers = 0

    # ------------------------------------------------------------------ #
    # the main loop
    # ------------------------------------------------------------------ #

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        Returns the final value of :attr:`now`.  When ``until`` is given the
        clock is advanced exactly to it even if the last event fires earlier,
        so rate computations can divide by a known horizon.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        resume_timer = self._resume_timer
        step = self._step
        profiler = None  # re-read each iteration: install mid-run is allowed
        try:
            while queue:
                head = queue[0]
                at = head[0]
                callback = head[2]
                args = head[3]
                if callback is resume_timer and args[1] != args[0]._timer_gen:
                    # dead timer from an interrupted wait: drop it
                    # without advancing the clock
                    heappop(queue)
                    self._dead_timers -= 1
                    continue
                if until is not None and at > until:
                    break
                heappop(queue)
                if at < self.now:
                    raise SimulationError("event queue time went backwards")
                self.now = at
                if callback is resume_timer and (not queue or queue[0][0] > at):
                    # a live sleep with no peer at its instant: the step
                    # _resume_timer would push is the next entry popped,
                    # so run it now — same order, no second heap entry
                    callback = step
                    args = (args[0], None, None)
                profiler = self.profiler
                if profiler is None:
                    callback(*args)
                else:
                    profiler.dispatch(callback, args)
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next *live* scheduled event, or None when empty.

        Dead (cancelled-sleep) entries at the head are dropped on the way.
        """
        queue = self._queue
        resume_timer = self._resume_timer
        while queue:
            head = queue[0]
            if head[2] is resume_timer and head[3][1] != head[3][0]._timer_gen:
                heappop(queue)
                self._dead_timers -= 1
                continue
            return head[0]
        return None

    @property
    def queued_events(self) -> int:
        """Number of live callbacks currently scheduled.

        Invalidated sleep entries awaiting physical removal are excluded, so
        the count (and any telemetry gauge over it) is truthful immediately
        after an interrupt.
        """
        return len(self._queue) - self._dead_timers

    @property
    def events_scheduled(self) -> int:
        """Total callbacks ever scheduled (the benchmark's events/sec base)."""
        return self._seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine now={self.now:.6g} queued={self.queued_events}>"
