"""Kernel hot-path refactor contracts.

Covers the refactor's satellite fixes and observability guarantees:

* ``schedule_at`` tolerates epsilon-negative float round-off,
* interrupted sleeps vanish from ``queued_events`` (and any telemetry
  gauge over it) immediately — no dead heap entries inflating depth,
* ``Timeout`` instances are cached per delay,
* the profiler still buckets the refactored resume path under meaningful
  process names (no ``<lambda>`` / ``partial`` collapse),
* a sleep whose deadline has no peer at its instant costs one event, and
  every process still resumes where the two-hop loop resumed it.
"""

from heapq import heappop

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProcessKilled, SimulationError
from repro.obs.profiler import Profiler, bucket_name
from repro.obs.samplers import Telemetry
from repro.sim import Engine


class TestScheduleAtEpsilon:
    def test_epsilon_negative_round_off_is_clamped(self):
        """An instant a few ULP in the past (float round-off, not a logic
        error) is clamped to "now" instead of raising."""
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.now == 1.0
        engine.schedule_at(1.0 - 1e-12, fired.append, "x")
        engine.run()
        assert fired == ["x"]
        assert engine.now == 1.0  # clamped to now, clock never went back

    def test_tick_schedule_survives_accumulated_drift(self):
        """A telemetry-style absolute tick schedule crossing an accumulated
        clock must never die with 'cannot schedule in the past'."""
        engine = Engine()
        ticks = []

        def advance():
            yield engine.timeout(0.1)

        for _ in range(10):
            engine.process(advance())
        engine.run()  # now == 10 * 0.1 with round-off
        for i in range(1, 4):
            engine.schedule_at(engine.now + i * 0.1, ticks.append, i)
        engine.schedule_at(engine.now, ticks.append, 0)  # exactly "now"
        engine.run()
        assert ticks == [0, 1, 2, 3]

    def test_genuinely_past_instants_still_raise(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        for at in (0.5, float("nan")):  # NaN is no instant at all
            with pytest.raises(SimulationError):
                engine.schedule_at(at, lambda: None)
        assert engine.queued_events == 0


class TestQueuedEventsTruthful:
    def test_interrupted_sleep_leaves_no_logical_entry(self):
        engine = Engine()

        def sleeper():
            try:
                yield engine.timeout(1000.0)
            except ProcessKilled:
                return "killed"

        p = engine.process(sleeper())
        engine.run(until=0.5)
        assert engine.queued_events == 1  # the armed timer
        p.interrupt()
        # the dead timer is excluded immediately; only the throw step counts
        assert engine.queued_events == 1
        engine.run(until=2.0)
        assert engine.queued_events == 0
        assert p.value == "killed"
        assert engine.now == 2.0

    def test_gauge_over_queued_events_never_sees_dead_timers(self):
        engine = Engine()
        telemetry = Telemetry(interval=1.0)
        series = telemetry.gauge("engine_queue", lambda: engine.queued_events)

        def sleeper():
            try:
                yield engine.timeout(1000.0)
            except ProcessKilled:
                return "killed"

        procs = [engine.process(sleeper()) for _ in range(5)]
        engine.run(until=0.5)
        telemetry.sample(engine.now)
        assert series.values[-1] == 5.0
        for p in procs:
            p.interrupt()
        telemetry.sample(engine.now)
        # 5 dead timers are invisible; 5 pending throw steps remain
        assert series.values[-1] == 5.0
        engine.run(until=2.0)
        telemetry.sample(engine.now)
        assert series.values[-1] == 0.0

    def test_heavy_interrupt_churn_compacts_the_heap(self):
        """Hundreds of cancelled sleeps must not leave a heap of corpses.

        Two interrupt waves: after wave A's throw steps have drained, the
        heap is mostly dead timers, so wave B's first cancellations cross
        the compaction threshold and the heap physically shrinks.
        """
        engine = Engine()
        wave_a = []
        wave_b = []

        def sleeper():
            try:
                yield engine.timeout(10_000.0)
            except ProcessKilled:
                return None

        for _ in range(300):
            wave_a.append(engine.process(sleeper()))
            wave_b.append(engine.process(sleeper()))

        def killer():
            yield engine.timeout(0.5)
            for p in wave_a:
                p.interrupt()
            yield engine.timeout(0.5)  # wave-a throw steps drain meanwhile
            for p in wave_b:
                p.interrupt()

        engine.process(killer())
        engine.run(until=2.0)
        assert engine.queued_events == 0
        assert len(engine._queue) == 0
        assert engine.now == 2.0
        assert all(p.settled for p in wave_a + wave_b)

    def test_experiment_series_include_engine_queue(self):
        from repro.analytic.parameters import ModelParameters
        from repro.harness import ExperimentConfig, run_experiment

        result = run_experiment(
            ExperimentConfig(
                strategy="eager-group",
                params=ModelParameters(
                    db_size=40, nodes=2, tps=5.0, actions=2, action_time=0.002
                ),
                duration=5.0,
                seed=3,
                sample_interval=1.0,
            )
        )
        series = result.extra["series"]["series"]
        assert "engine_queue" in series
        assert series["engine_queue"]["summary"]["count"] > 0


class TestTimeoutCache:
    def test_same_delay_shares_one_timeout(self):
        engine = Engine()
        assert engine.timeout(0.005) is engine.timeout(0.005)
        assert engine.timeout(0.005) is not engine.timeout(0.006)

    def test_cache_is_bounded(self):
        engine = Engine()
        for i in range(1000):
            engine.timeout(float(i))
        assert len(engine._timeout_cache) <= 256

    def test_negative_delay_still_rejected(self):
        engine = Engine()
        for delay in (-0.1, float("nan")):  # NaN never hits the cache
            with pytest.raises(SimulationError):
                engine.timeout(delay)
        assert not engine._timeout_cache


class TestProfilerBucketing:
    def test_resume_path_buckets_under_process_names(self):
        """The refactored timer/step callbacks carry the process as their
        first argument, so the profiler buckets them by process name."""
        engine = Engine()
        profiler = Profiler().install(engine)

        def worker():
            yield engine.timeout(1.0)
            yield engine.timeout(1.0)

        engine.process(worker(), name="worker-7")
        engine.run()
        assert "worker" in profiler.buckets
        bad = [
            name
            for name in profiler.buckets
            if "<lambda>" in name or "partial" in name or "<locals>" in name
        ]
        assert not bad, f"opaque profile buckets: {bad}"

    def test_full_run_has_no_opaque_buckets(self):
        from repro.analytic.parameters import ModelParameters
        from repro.harness import ExperimentConfig, run_experiment

        profiler = Profiler()
        run_experiment(
            ExperimentConfig(
                strategy="lazy-master",
                params=ModelParameters(
                    db_size=40, nodes=3, tps=5.0, actions=2,
                    action_time=0.002, message_delay=0.001,
                ),
                duration=5.0,
                seed=3,
                profiler=profiler,
            )
        )
        assert profiler.total_dispatches > 0
        names = set(profiler.buckets)
        bad = [
            n for n in names
            if "<lambda>" in n or "partial" in n or "<locals>" in n
        ]
        assert not bad, f"opaque profile buckets: {bad}"
        # network handler processes keep their per-kind identity
        assert any(n.startswith("handler-") for n in names)
        # user transactions bucket under the strategy's txn name
        assert any("txn" in n for n in names)

    def test_direct_bucket_names_of_kernel_callbacks(self):
        engine = Engine()

        def worker():
            yield engine.timeout(1.0)

        proc = engine.process(worker(), name="replica-update@2")
        assert bucket_name(engine._step, (proc, None, None)) == "replica-update"
        assert bucket_name(
            engine._resume_timer, (proc, 0)
        ) == "replica-update"


class TwoHopEngine(Engine):
    """Reference kernel: every live sleep deadline takes the second hop.

    ``_resume_timer`` queues the process's step behind whatever else is due
    at that instant — the order :class:`Engine` must reproduce with fewer
    events.
    """

    def run(self, until=None):
        queue = self._queue
        while queue:
            head = queue[0]
            if (head[2] is self._resume_timer
                    and head[3][1] != head[3][0]._timer_gen):
                heappop(queue)
                self._dead_timers -= 1
                continue
            if until is not None and head[0] > until:
                break
            heappop(queue)
            self.now = head[0]
            head[2](*head[3])
        if until is not None and self.now < until:
            self.now = until
        return self.now


_DELAYS = st.sampled_from([0.0, 1.0, 2.0])  # three values: ties are common
_STEPS = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("fire"), st.integers(0, 2)),
    st.tuples(st.just("fire-later"), st.integers(0, 2), _DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
    st.tuples(st.just("kill"), st.integers(0, 5)),
)
_SCENARIOS = st.tuples(
    st.lists(st.lists(_STEPS, max_size=8), min_size=1, max_size=6),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]), max_size=4),
)


def _play(engine, scripts, horizons):
    """Run one scenario; returns (resume log, clock after each run slice,
    wakes that broke the wait contract)."""
    log = []
    # a wake before a sleep's deadline or an event's settling, or a normal
    # wake of a process whose interrupt was accepted
    broken = []
    interrupted = set()
    events = [engine.event(name=f"e{i}") for i in range(3)]
    procs = []

    def fire(index, value):
        if events[index].pending:
            events[index].succeed(value)

    def body(name, script):
        for step in script:
            kind = step[0]
            started = engine.now
            try:
                if kind == "sleep":
                    yield engine.timeout(step[1])
                    if engine.now != started + step[1]:
                        broken.append((engine.now, name, step))
                elif kind == "wait":
                    yield events[step[1]]
                    if events[step[1]].pending:
                        broken.append((engine.now, name, step))
                elif kind == "fire":
                    fire(step[1], name)
                    continue
                elif kind == "fire-later":
                    engine.schedule(step[2], fire, step[1], name)
                    continue
                elif kind == "interrupt":
                    # a sleeper or an event waiter; never one runnable
                    target = procs[step[1] % len(procs)]
                    if target.waiting_on is not None:
                        target.interrupt()
                        interrupted.add(target.name)
                    continue
                else:
                    target = procs[step[1] % len(procs)]
                    killed = target.kill()
                    if killed:
                        interrupted.add(target.name)
                    log.append((engine.now, name, "kill", killed))
                    continue
            except ProcessKilled:
                interrupted.discard(name)
                log.append((engine.now, name + "!"))
            else:
                if name in interrupted:
                    broken.append((engine.now, name, step))
                log.append((engine.now, name))

    for index, script in enumerate(scripts):
        name = f"p{index}"
        procs.append(engine.process(body(name, script), name=name))
    clocks = [engine.run(until=until) for until in sorted(horizons)]
    clocks.append(engine.run())
    return log, clocks, broken


class TestOneHopSleep:
    def test_sleeper_resumes_after_a_peer_queued_at_its_instant(self):
        """The rule may only fire when nothing shares the deadline: two
        sleepers armed before a bare callback lands on their instant still
        resume behind it, in arming order — the two-hop order."""
        engine = Engine()
        log = []

        def sleeper(name):
            yield engine.timeout(1.0)
            log.append((engine.now, name))
            yield engine.timeout(1.0)
            log.append((engine.now, name))

        engine.process(sleeper("first"))
        engine.process(sleeper("second"))
        engine.run(until=0.5)  # both timers are armed for t=1.0 ...
        engine.schedule(0.5, lambda: log.append((engine.now, "peer")))
        engine.run()  # ... and the callback is queued there behind them
        assert log == [
            (1.0, "peer"), (1.0, "first"), (1.0, "second"),
            (2.0, "first"), (2.0, "second"),
        ]

    def test_a_sleeper_whose_deadline_arrived_is_runnable_not_sleeping(self):
        """Between a shared deadline and the step queued behind the peer the
        timer is spent: ``kill`` leaves the process alone, as it does any
        runnable process, instead of cancelling a timer that is gone (which
        drove ``queued_events`` negative and woke the sleeper twice)."""
        engine = Engine()
        log = []

        def sleeper():
            for _ in range(2):
                yield engine.timeout(1.0)
                log.append((engine.now, "woke"))

        proc = engine.process(sleeper())
        engine.run(until=0.5)

        def poke():
            log.append((engine.now, "kill", proc.kill()))
            with pytest.raises(SimulationError):
                proc.interrupt()

        engine.schedule(0.5, lambda: None)  # the peer that forces two hops
        engine.schedule(0.5, poke)  # runs after the deadline, before the step
        assert engine.run() == 2.0
        assert log == [(1.0, "kill", False), (1.0, "woke"), (2.0, "woke")]
        assert engine.queued_events == 0 and engine._dead_timers == 0

    def test_lone_sleeper_costs_one_event_per_sleep(self):
        engine = Engine()

        def worker():
            for _ in range(3):
                yield engine.timeout(1.0)

        engine.process(worker())
        assert engine.run() == 3.0
        assert engine.events_scheduled == 1 + 3  # the spawn, then each sleep
        assert engine.queued_events == 0

    def test_eager_workload_stays_under_sixteen_events_per_transaction(self):
        """The count the rule exists for, on the ladder's ``des_eager_hot``
        shape: 12 action sleeps, an arrival sleep and the spawns come to
        ~14 events per transaction; with a second hop per sleep it is 26.6.
        A count, not a timing — the same on every machine."""
        from repro.analytic.parameters import ModelParameters
        from repro.harness import ExperimentConfig, run_experiment

        result = run_experiment(
            ExperimentConfig(
                strategy="eager-group",
                params=ModelParameters(
                    db_size=100, nodes=3, tps=40, actions=4,
                    action_time=0.002, message_delay=0.001,
                ),
                duration=20.0,
                seed=11,
            )
        )
        finished = result.metrics.commits + result.metrics.aborts
        assert finished > 2000
        assert result.extra["engine_events"] / finished <= 16

    def test_an_event_waiter_already_woken_is_runnable_not_waiting(self):
        """Between an event settling and the waiter's step the wait is
        over: ``kill`` leaves the process alone and ``interrupt`` refuses,
        as for a spent timer.  (A kill landing there used to return True,
        deliver the value anyway, then throw at the *next* yield while that
        yield's timer stayed armed.)"""
        engine = Engine()
        event = engine.event("ev")
        log = []

        def waiter():
            log.append(("woke", (yield event), engine.now))
            yield engine.timeout(1.0)
            log.append(("slept", engine.now))

        proc = engine.process(waiter())
        engine.run()

        def settle_then_poke():
            event.succeed(7)
            log.append(("kill", proc.kill()))
            with pytest.raises(SimulationError):
                proc.interrupt()

        engine.schedule(0.0, settle_then_poke)
        assert engine.run() == 1.0
        assert log == [("kill", False), ("woke", 7, 0.0), ("slept", 1.0)]
        assert proc.settled and proc.exception is None
        assert engine.queued_events == 0 and engine._dead_timers == 0

    @settings(max_examples=300, deadline=None)
    @given(_SCENARIOS)
    def test_resume_order_matches_the_two_hop_loop(self, scenario):
        """Interrupts and kills land on sleeps, event waits and the
        hand-offs between a wake and its step; every wake must keep the
        wait contract, in the two-hop loop's order."""
        scripts, horizons = scenario
        one_hop, two_hop = Engine(), TwoHopEngine()
        played = _play(one_hop, scripts, horizons)
        assert played == _play(two_hop, scripts, horizons)
        assert played[2] == []
        assert one_hop.queued_events == 0 and two_hop.queued_events == 0
        assert one_hop.events_scheduled <= two_hop.events_scheduled
