"""Tests for Process: interruption, nesting, liveness."""

import pytest

from repro.exceptions import ProcessKilled, SimulationError
from repro.sim import Engine
from repro.sim.events import EventState, SimEvent


def test_a_fresh_process_starts_as_a_fresh_event():
    """``Process.__init__`` sets the event fields itself: every one a
    pending ``SimEvent`` has must be there, with the same value."""
    engine = Engine()

    def work():
        yield engine.timeout(1.0)

    proc = engine.process(work(), name="p")
    event = SimEvent(name="p")
    for slot in SimEvent.__slots__:
        assert getattr(proc, slot) == getattr(event, slot), slot
    assert proc.state is EventState.PENDING
    assert engine.process(work()).name == "work"  # the generator's name


def test_process_alive_until_finished():
    engine = Engine()

    def proc():
        yield engine.timeout(5.0)

    p = engine.process(proc())
    assert p.alive
    engine.run(until=1.0)
    assert p.alive
    engine.run()
    assert not p.alive


def test_interrupt_waiting_process_raises_inside():
    engine = Engine()
    caught = []

    def sleeper():
        try:
            yield engine.timeout(100.0)
        except ProcessKilled as exc:
            caught.append(str(exc))
            return "interrupted"

    p = engine.process(sleeper())
    engine.schedule(2.0, p.interrupt)
    engine.run()
    assert p.value == "interrupted"
    assert caught
    assert engine.now == pytest.approx(2.0)


def test_interrupt_with_custom_exception():
    engine = Engine()

    class Custom(Exception):
        pass

    def sleeper():
        try:
            yield engine.timeout(100.0)
        except Custom:
            return "custom"

    p = engine.process(sleeper())
    engine.schedule(1.0, p.interrupt, Custom())
    engine.run()
    assert p.value == "custom"


def test_uncaught_interrupt_fails_process():
    engine = Engine()

    def sleeper():
        yield engine.timeout(100.0)

    p = engine.process(sleeper())
    engine.schedule(1.0, p.interrupt)
    engine.run()
    assert isinstance(p.exception, ProcessKilled)


def test_interrupt_finished_process_is_noop():
    engine = Engine()

    def quick():
        yield engine.timeout(1.0)
        return "ok"

    p = engine.process(quick())
    engine.run()
    p.interrupt()  # must not raise
    assert p.value == "ok"


def test_interrupt_process_waiting_on_event_detaches_cleanly():
    engine = Engine()
    gate = engine.event()

    def waiter():
        try:
            yield gate
        except ProcessKilled:
            return "interrupted"

    p = engine.process(waiter())
    engine.schedule(1.0, p.interrupt)
    engine.run(until=2.0)
    assert p.value == "interrupted"
    # the event can still settle without resurrecting the process
    gate.succeed("late")
    engine.run()
    assert p.value == "interrupted"


def test_interrupt_not_yet_started_process_rejected():
    engine = Engine()

    def proc():
        yield engine.timeout(1.0)

    p = engine.process(proc())
    # the process has not run its first step, so it is not waiting yet
    with pytest.raises(SimulationError):
        p.interrupt()


def test_nested_process_chain_returns_through_levels():
    engine = Engine()

    def level3():
        yield engine.timeout(1.0)
        return 3

    def level2():
        value = yield engine.process(level3())
        return value + 2

    def level1():
        value = yield engine.process(level2())
        return value + 1

    p = engine.process(level1())
    engine.run()
    assert p.value == 6


def test_yield_from_subgenerator():
    engine = Engine()

    def helper():
        yield engine.timeout(1.0)
        return "helped"

    def main():
        result = yield from helper()
        return result

    p = engine.process(main())
    engine.run()
    assert p.value == "helped"


def test_process_is_event_other_waiters_notified():
    engine = Engine()

    def worker():
        yield engine.timeout(2.0)
        return "w"

    worker_proc = engine.process(worker())
    results = []

    def observer(tag):
        value = yield worker_proc
        results.append((tag, value, engine.now))

    engine.process(observer("a"))
    engine.process(observer("b"))
    engine.run()
    assert results == [("a", "w", 2.0), ("b", "w", 2.0)]
