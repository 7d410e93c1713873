"""Tests for the discrete-event engine."""

import pytest

from repro.exceptions import SimulationError
from repro.sim import Engine
from repro.sim.events import Timeout


def test_initial_clock_is_zero():
    assert Engine().now == 0.0


def test_schedule_runs_callback_at_delay():
    engine = Engine()
    seen = []
    engine.schedule(5.0, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [5.0]


def test_schedule_negative_delay_rejected():
    engine = Engine()
    for delay in (-1.0, float("nan")):  # NaN would sit unordered in the heap
        with pytest.raises(SimulationError):
            engine.schedule(delay, lambda: None)
    assert engine.queued_events == 0


def test_same_time_events_run_fifo():
    engine = Engine()
    order = []
    for tag in ["a", "b", "c"]:
        engine.schedule(1.0, order.append, tag)
    engine.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_before_later_events():
    engine = Engine()
    seen = []
    engine.schedule(1.0, seen.append, 1)
    engine.schedule(10.0, seen.append, 10)
    engine.run(until=5.0)
    assert seen == [1]
    assert engine.now == 5.0
    # the later event is still queued and runs on the next call
    engine.run()
    assert seen == [1, 10]
    assert engine.now == 10.0


def test_run_until_advances_clock_even_without_events():
    engine = Engine()
    engine.run(until=42.0)
    assert engine.now == 42.0


def test_events_interleave_in_time_order():
    engine = Engine()
    seen = []
    engine.schedule(3.0, seen.append, "late")
    engine.schedule(1.0, seen.append, "early")
    engine.schedule(2.0, seen.append, "middle")
    engine.run()
    assert seen == ["early", "middle", "late"]


def test_callbacks_can_schedule_more_events():
    engine = Engine()
    seen = []

    def first():
        seen.append(("first", engine.now))
        engine.schedule(2.0, second)

    def second():
        seen.append(("second", engine.now))

    engine.schedule(1.0, first)
    engine.run()
    assert seen == [("first", 1.0), ("second", 3.0)]


def test_process_simple_timeout():
    engine = Engine()

    def proc():
        yield engine.timeout(2.5)
        return "done"

    p = engine.process(proc())
    engine.run()
    assert p.value == "done"
    assert engine.now == 2.5


def test_process_return_value_none_by_default():
    engine = Engine()

    def proc():
        yield engine.timeout(1.0)

    p = engine.process(proc())
    engine.run()
    assert p.value is None


def test_process_requires_generator():
    engine = Engine()

    def not_a_generator():
        return 42

    with pytest.raises(SimulationError):
        engine.process(not_a_generator)  # forgot to call it / not a generator


def test_process_waits_for_event():
    engine = Engine()
    gate = engine.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((engine.now, value))

    engine.process(waiter())
    engine.schedule(4.0, gate.succeed, "opened")
    engine.run()
    assert seen == [(4.0, "opened")]


def test_process_waits_for_other_process():
    engine = Engine()

    def child():
        yield engine.timeout(3.0)
        return "child-result"

    def parent():
        result = yield engine.process(child())
        return f"got {result}"

    p = engine.process(parent())
    engine.run()
    assert p.value == "got child-result"


def test_process_exception_fails_its_completion_event():
    engine = Engine()

    def boom():
        yield engine.timeout(1.0)
        raise ValueError("kaput")

    p = engine.process(boom())
    engine.run()
    assert p.settled
    assert isinstance(p.exception, ValueError)


def test_failed_child_raises_in_parent():
    engine = Engine()

    def child():
        yield engine.timeout(1.0)
        raise ValueError("kaput")

    def parent():
        try:
            yield engine.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    p = engine.process(parent())
    engine.run()
    assert p.value == "caught kaput"


def test_yielding_garbage_fails_the_process():
    engine = Engine()

    def bad():
        yield 42

    p = engine.process(bad())
    engine.run()
    assert isinstance(p.exception, SimulationError)


def test_two_processes_interleave():
    engine = Engine()
    trace = []

    def ticker(name, period, count):
        for _ in range(count):
            yield engine.timeout(period)
            trace.append((engine.now, name))

    engine.process(ticker("fast", 1.0, 3))
    engine.process(ticker("slow", 2.0, 2))
    engine.run()
    # at t=2.0 "slow" resumes first: its timeout was scheduled at t=0,
    # before "fast" re-armed at t=1.0 (FIFO among same-instant events)
    assert trace == [
        (1.0, "fast"),
        (2.0, "slow"),
        (2.0, "fast"),
        (3.0, "fast"),
        (4.0, "slow"),
    ]


def test_yield_already_settled_event_resumes_immediately():
    engine = Engine()
    done = engine.event()
    done.succeed("early")

    def proc():
        value = yield done
        return value

    p = engine.process(proc())
    engine.run()
    assert p.value == "early"
    assert engine.now == 0.0


def test_peek_and_queued_events():
    engine = Engine()
    assert engine.peek() is None
    engine.schedule(7.0, lambda: None)
    engine.schedule(3.0, lambda: None)
    assert engine.peek() == 3.0
    assert engine.queued_events == 2


def test_reentrant_run_rejected():
    engine = Engine()

    def nested():
        engine.run()

    engine.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        engine.run()


def test_keyboard_interrupt_in_a_process_leaves_run():
    """Ctrl-C while a process body runs is not that process's failure: it
    propagates out of run(), nothing runs past that instant, and the engine
    can be driven again."""
    engine = Engine()
    log = []

    def interrupted():
        yield engine.timeout(1.0)
        raise KeyboardInterrupt

    def sibling():
        for _ in range(5):
            yield engine.timeout(1.0)
            log.append(engine.now)

    victim = engine.process(interrupted())
    engine.process(sibling())
    with pytest.raises(KeyboardInterrupt):
        engine.run()
    assert engine.now == 1.0
    assert log == []  # the sibling's t=1.0 wake-up was queued behind it
    assert victim.pending  # not recorded as a process failure
    assert engine.run() == 5.0  # not refused as re-entrant
    assert log == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_zero_delay_timeout_allowed():
    engine = Engine()

    def proc():
        yield engine.timeout(0.0)
        return engine.now

    p = engine.process(proc())
    engine.run()
    assert p.value == 0.0


def test_negative_timeout_rejected():
    for delay in (-0.5, float("nan")):
        with pytest.raises(SimulationError):
            Timeout(delay)


def test_determinism_two_identical_runs():
    def build_and_run():
        engine = Engine()
        trace = []

        def proc(name, period):
            for _ in range(5):
                yield engine.timeout(period)
                trace.append((round(engine.now, 9), name))

        engine.process(proc("a", 0.3))
        engine.process(proc("b", 0.7))
        engine.run()
        return trace

    assert build_and_run() == build_and_run()


def test_ten_processes_fire_every_one_of_twenty_thousand_timeouts():
    engine = Engine()
    fired = []

    def proc():
        for _ in range(2_000):
            yield engine.timeout(0.001)
            fired.append(engine.now)

    for _ in range(10):
        engine.process(proc())
    engine.run()
    assert len(fired) == 20_000
