"""Tests for the wall-clock kernel behind ``repro serve``.

The contract: the same Process/event/timeout API as the sim kernel, but
``now`` tracks ``time.monotonic`` and the dispatch loop is an asyncio
coroutine.  Wall-clock mode is strictly additive — the last test class
pins that nothing in the simulator defaults to it.
"""

import asyncio
import importlib
import typing

import pytest

from repro.core import AlwaysAccept, NonNegativeOutputs, TwoTierSystem
from repro.core.tentative import TentativeStatus
from repro.exceptions import SimulationError
from repro.obs.profiler import Profiler
from repro.replication import SystemSpec
from repro.service import WallClockEngine
from repro.sim import Engine
from repro.sim.engine import _TIMEOUT_CACHE_LIMIT
from repro.txn.ops import IncrementOp


class TestDispatch:
    def test_synchronous_run_raises(self):
        engine = WallClockEngine()
        with pytest.raises(SimulationError):
            engine.run()

    def test_drains_and_returns_without_a_stop_event(self):
        engine = WallClockEngine()
        fired = []
        engine.schedule(0.0, fired.append, "a")
        engine.schedule(0.005, fired.append, "b")
        asyncio.run(engine.run_async())
        assert fired == ["a", "b"]
        assert engine.queued_events == 0

    def test_timer_order_respects_delays(self):
        engine = WallClockEngine()
        order = []
        engine.schedule(0.02, order.append, 2)
        engine.schedule(0.001, order.append, 1)
        engine.schedule_now(order.append, 0)
        asyncio.run(engine.run_async())
        assert order == [0, 1, 2]

    def test_now_advances_with_real_time(self):
        engine = WallClockEngine()
        engine.schedule(0.02, lambda: None)
        asyncio.run(engine.run_async())
        assert engine.now >= 0.02

    def test_processes_and_timeouts_run_like_the_sim_kernel(self):
        engine = WallClockEngine()
        trail = []

        def worker(tag):
            trail.append(("start", tag))
            yield engine.timeout(0.002)
            trail.append(("done", tag))

        engine.process(worker("x"))
        engine.process(worker("y"))
        asyncio.run(engine.run_async())
        assert trail[:2] == [("start", "x"), ("start", "y")]
        assert sorted(trail[2:]) == [("done", "x"), ("done", "y")]

    def test_external_submission_wakes_a_sleeping_loop(self):
        # the loop parks with nothing queued; a task on the same loop
        # schedules new work and the engine must pick it up without a kick
        engine = WallClockEngine()
        fired = []

        async def main():
            stop = asyncio.Event()
            runner = asyncio.create_task(engine.run_async(stop=stop))
            await asyncio.sleep(0.02)  # loop is now asleep, queue empty
            engine.schedule_now(fired.append, "woken")
            await asyncio.sleep(0.02)
            stop.set()
            engine.kick()
            await runner

        asyncio.run(main())
        assert fired == ["woken"]

    def test_profiler_taps_wallclock_dispatch(self):
        engine = WallClockEngine()
        profiler = Profiler().install(engine)
        engine.schedule(0.0, lambda: None)
        engine.schedule(0.001, lambda: None)
        asyncio.run(engine.run_async())
        assert "lambda" in profiler.table() or engine.events_scheduled >= 2


class TestPump:
    """``pump``: a caller's admissions and all they made due, dispatched in
    the caller's own frame; the driver hears of it only for what is left."""

    @staticmethod
    def _chain(engine, trail):
        def worker(tag):
            trail.append((tag, "start"))
            done = engine.event()
            engine.schedule_now(done.succeed, tag)
            trail.append((tag, (yield done)))

        return worker

    def test_dispatches_in_the_callers_frame(self):
        engine = WallClockEngine()  # no loop, no driver: nothing else can run
        trail = []
        worker = self._chain(engine, trail)

        def admit():
            engine.process(worker("a"))
            engine.process(worker("b"))
            trail.append("admitted")

        engine.pump(admit)
        assert trail == ["admitted", ("a", "start"), ("b", "start"),
                         ("a", "a"), ("b", "b")]
        assert engine.queued_events == 0

    def test_parked_driver_sleeps_on_unless_a_timer_is_left(self):
        engine = WallClockEngine()
        fired = []
        peeks = []  # the driver peeks once each time round, before it parks
        real_peek = engine.peek
        engine.peek = lambda: peeks.append(1) or real_peek()

        async def main():
            stop = asyncio.Event()
            runner = asyncio.create_task(engine.run_async(stop=stop))
            await asyncio.sleep(0.01)  # parked, nothing queued
            parked = len(peeks)
            engine.pump(lambda: engine.schedule_now(fired.append, "now"))
            assert fired == ["now"]
            await asyncio.sleep(0.01)
            undisturbed = len(peeks) == parked
            engine.pump(lambda: engine.schedule(0.005, fired.append, "later"))
            assert fired == ["now"]  # not due: left to the driver
            await asyncio.sleep(0.05)
            stop.set()
            engine.kick()
            await runner
            return undisturbed, len(peeks) > parked

        undisturbed, woken = asyncio.run(main())
        assert undisturbed, "a pump that left nothing woke the driver"
        assert woken and fired == ["now", "later"]

    def test_honours_the_batch_bound_and_hands_the_rest_over(self):
        engine = WallClockEngine()
        fired = []

        async def main():
            runner = asyncio.create_task(engine.run_async())
            def admit():
                for i in range(10):
                    engine.schedule_now(fired.append, i)

            engine.pump(admit, max_batch=4)
            in_frame = list(fired)
            await runner
            return in_frame

        assert asyncio.run(main()) == [0, 1, 2, 3]
        assert fired == list(range(10))

    def test_profiler_sees_what_the_driver_would_show_it(self):
        def run(pumped):
            engine = WallClockEngine()
            seen = []

            class Tap:
                def dispatch(self, callback, args):
                    plain = [a for a in args if isinstance(a, (str, int))]
                    seen.append((getattr(callback, "__name__", "?"), plain))
                    callback(*args)

            engine.profiler = Tap()
            trail = []
            worker = self._chain(engine, trail)

            def admit():
                engine.process(worker("a"), name="a")
                engine.schedule_now(trail.append, "plain")

            if pumped:
                engine.pump(admit)
            else:
                admit()
                asyncio.run(engine.run_async())
            return seen, trail

        assert run(pumped=True) == run(pumped=False)
        assert len(run(pumped=True)[0]) == 4  # spawn, plain, succeed, resume


class TestTwoTierOnWallClock:
    """The tentpole claim: the unmodified two-tier core on real time."""

    def _system(self, engine):
        spec = SystemSpec(num_nodes=3, db_size=20, action_time=0.0005,
                          initial_value=100, engine=engine)
        return TwoTierSystem(spec, num_base=1)

    def test_reconnect_exchange_converges_on_wall_clock(self):
        engine = WallClockEngine()
        system = self._system(engine)
        mobile = system.mobile(1)
        system.disconnect_mobile(1)
        mobile.submit_tentative([IncrementOp(0, -40)], AlwaysAccept())
        mobile.submit_tentative([IncrementOp(0, -40)], AlwaysAccept())
        asyncio.run(engine.run_async())  # tentative work, on real time
        system.reconnect_mobile(1)
        asyncio.run(engine.run_async())  # the reconnect exchange
        assert system.nodes[0].store.value(0) == 20
        assert system.base_divergence() == 0
        assert len(mobile.accepted_transactions) == 2

    def test_rejection_diagnostics_round_trip_on_wall_clock(self):
        engine = WallClockEngine()
        system = self._system(engine)
        mobile = system.mobile(1)
        system.disconnect_mobile(1)
        mobile.submit_tentative([IncrementOp(0, -150)], NonNegativeOutputs())
        asyncio.run(engine.run_async())
        system.reconnect_mobile(1)
        asyncio.run(engine.run_async())
        assert len(mobile.rejected_transactions) == 1
        record = mobile.rejected_transactions[0]
        [(seq, status, why)] = mobile.notices
        assert seq == record.seq
        assert status is TentativeStatus.REJECTED
        assert why  # the acceptance criterion's human-readable diagnostic


class TestWallClockIsAdditive:
    """Determinism safety: nothing defaults to the wall-clock kernel."""

    def test_system_spec_defaults_to_no_engine(self):
        assert SystemSpec(num_nodes=2, db_size=10).engine is None

    def test_default_system_builds_the_sim_kernel(self):
        system = TwoTierSystem(
            SystemSpec(num_nodes=2, db_size=10), num_base=1
        )
        assert type(system.engine) is Engine

    def test_wallclock_engine_is_opt_in_only(self):
        engine = WallClockEngine()
        system = TwoTierSystem(
            SystemSpec(num_nodes=2, db_size=10, engine=engine), num_base=1
        )
        assert system.engine is engine


# ``Engine`` is the one kernel type: the wall-clock kernel subclasses it, and
# the layers that kernel drives are annotated against it


def test_wallclock_engine_is_an_engine():
    assert issubclass(WallClockEngine, Engine)


@pytest.mark.parametrize("module_name, owners", [
    pytest.param("repro.txn.manager", ("TransactionManager.__init__",),
                 id="repro.txn.manager"),
    pytest.param("repro.network.network", ("Network.__init__",),
                 id="repro.network.network"),
    pytest.param("repro.storage.lock_manager", ("LockManager.__init__",),
                 id="repro.storage.lock_manager"),
    pytest.param("repro.replication.base", ("SystemSpec", "_lock_hooks"),
                 id="repro.replication.base"),
])
def test_layers_are_typed_against_engine(module_name, owners):
    # resolving the hints fails on an annotation naming a retired type
    module = importlib.import_module(module_name)
    for owner in owners:
        target = module
        for attr in owner.split("."):
            target = getattr(target, attr)
        assert typing.get_type_hints(target)["engine"] in (
            Engine, typing.Optional[Engine]), owner


class TestTimeoutCacheOverflow:
    """The ``_TIMEOUT_CACHE_LIMIT`` fix: a full cache hands back correct
    uncached Timeouts instead of thrashing the delays that repeat."""

    def test_repeated_delays_share_one_timeout(self):
        engine = Engine()
        assert engine.timeout(0.5) is engine.timeout(0.5)

    def test_overflow_returns_uncached_but_correct_timeouts(self):
        engine = Engine()
        # fill the cache with distinct delays
        for i in range(_TIMEOUT_CACHE_LIMIT):
            engine.timeout(1.0 + i)
        assert len(engine._timeout_cache) == _TIMEOUT_CACHE_LIMIT
        # the overflowing delay still works, is simply not cached
        extra = engine.timeout(9999.5)
        assert extra.delay == 9999.5
        assert len(engine._timeout_cache) == _TIMEOUT_CACHE_LIMIT
        assert engine.timeout(9999.5) is not extra
        # delays cached before the overflow still hit
        assert engine.timeout(1.0) is engine.timeout(1.0)

    def test_overflowed_timeouts_schedule_correctly(self):
        engine = Engine()
        for i in range(_TIMEOUT_CACHE_LIMIT + 10):
            engine.timeout(1.0 + i)  # overflow the cache
        fired = []

        def worker():
            yield engine.timeout(5000.0)  # uncached path
            fired.append(engine.now)

        engine.process(worker())
        engine.run()
        assert fired == [5000.0]
