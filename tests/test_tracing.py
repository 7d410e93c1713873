"""Tests for the tracing facility."""

import re
from pathlib import Path

import pytest

import repro
from repro.sim.tracing import TraceEvent, Tracer
from repro.replication import SystemSpec


class TestTracerUnit:
    def test_emit_and_query(self):
        tracer = Tracer()
        tracer.emit(1.0, "commit", txn=5)
        tracer.emit(2.0, "abort", txn=6, reason="deadlock")
        assert len(tracer) == 2
        assert tracer.count("commit") == 1
        assert tracer.events("abort")[0].detail["reason"] == "deadlock"

    def test_category_filter(self):
        tracer = Tracer(categories={"deadlock"})
        tracer.emit(1.0, "commit", txn=5)
        tracer.emit(2.0, "deadlock", txn=6)
        assert len(tracer) == 1
        assert tracer.events()[0].category == "deadlock"

    def test_ring_buffer_limit(self):
        tracer = Tracer(limit=3)
        for i in range(5):
            tracer.emit(float(i), "wait", txn=i)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert tracer.events()[0].detail["txn"] == 2  # oldest kept

    def test_unbounded_tracer_keeps_every_event(self):
        tracer = Tracer(limit=None)
        for i in range(150_000):
            tracer.emit(float(i), "wait", txn=i)
        assert len(tracer) == 150_000
        assert tracer.dropped == 0
        assert tracer.events()[0].detail["txn"] == 0

    def test_known_categories_are_exactly_the_emitted_ones(self):
        # every literal category handed to a system's _trace(...) under
        # the package, however the call is wrapped across lines
        emitted = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            emitted.update(re.findall(r'_trace\(\s*"([^"]+)"',
                                      path.read_text(encoding="utf-8")))
        assert emitted
        assert set(Tracer.KNOWN_CATEGORIES) == emitted
        assert len(Tracer.KNOWN_CATEGORIES) == len(emitted)

    def test_timeline_follows_one_transaction(self):
        tracer = Tracer()
        tracer.emit(1.0, "begin", txn=7)
        tracer.emit(2.0, "wait", txn=8)
        tracer.emit(3.0, "commit", txn=7)
        timeline = tracer.timeline(7)
        assert [e.category for e in timeline] == ["begin", "commit"]

    def test_format_is_readable(self):
        event = TraceEvent(time=1.5, category="commit", detail={"txn": 9})
        text = event.format()
        assert "commit" in text and "txn=9" in text
        tracer = Tracer()
        tracer.emit(1.5, "commit", txn=9)
        assert tracer.format_events() == tracer.events()[0].format()

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1.0, "wait", txn=1)
        tracer.clear()
        assert len(tracer) == 0

    def test_echo_prints(self, capsys):
        tracer = Tracer(echo=True)
        tracer.emit(1.0, "commit", txn=3)
        assert "commit" in capsys.readouterr().out


class TestSystemTracing:
    def test_lazy_group_reconciliation_traced(self):
        from repro.replication.lazy_group import LazyGroupSystem
        from repro.txn.ops import WriteOp

        tracer = Tracer()
        system = LazyGroupSystem(
            SystemSpec(num_nodes=2, db_size=4, action_time=0.001,
                       message_delay=1.0, tracer=tracer),
        )
        system.submit(0, [WriteOp(0, 1)])
        system.submit(1, [WriteOp(0, 2)])
        system.run()
        assert tracer.count("commit") == 2
        assert tracer.count("reconcile") >= 1
        reconcile = tracer.events("reconcile")[0]
        assert reconcile.detail["oid"] == 0
        assert reconcile.detail["outcome"] in ("apply", "discard")

    def test_deadlock_traced_with_victim(self):
        from repro.replication.eager_group import EagerGroupSystem
        from repro.txn.ops import WriteOp

        tracer = Tracer()
        system = EagerGroupSystem(
            SystemSpec(num_nodes=2, db_size=4, action_time=0.01, tracer=tracer),
        )
        system.submit(0, [WriteOp(0, 1), WriteOp(1, 1)])
        system.submit(1, [WriteOp(1, 2), WriteOp(0, 2)])
        system.run()
        assert tracer.count("deadlock") >= 1
        assert tracer.count("abort") >= 1
        victim = tracer.events("deadlock")[0].detail["txn"]
        aborted = tracer.events("abort")[0].detail["txn"]
        assert victim == aborted

    def test_two_tier_rejection_traced(self):
        from repro.core import NonNegativeOutputs, TwoTierSystem
        from repro.txn.ops import IncrementOp

        tracer = Tracer()
        system = TwoTierSystem(
            SystemSpec(num_nodes=2, db_size=2, action_time=0.001,
                       initial_value=10, tracer=tracer),
            num_base=1,
        )
        system.disconnect_mobile(1)
        system.mobile(1).submit_tentative(
            [IncrementOp(0, -50)], NonNegativeOutputs()
        )
        system.run()
        system.reconnect_mobile(1)
        system.run()
        rejects = tracer.events("reject")
        assert len(rejects) == 1
        assert "negative" in rejects[0].detail["why"]
