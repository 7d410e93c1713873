"""Kernel hot-path refactor contracts.

Covers the refactor's satellite fixes and observability guarantees:

* ``schedule_at`` tolerates epsilon-negative float round-off,
* interrupted sleeps vanish from ``queued_events`` (and any telemetry
  gauge over it) immediately — no dead heap entries inflating depth,
* ``Timeout`` instances are cached per delay,
* the profiler still buckets the refactored resume path under meaningful
  process names (no ``<lambda>`` / ``partial`` collapse).
"""

import pytest

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
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)


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
        with pytest.raises(SimulationError):
            engine.timeout(-0.1)


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
