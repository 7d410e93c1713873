"""Edge-case tests across modules: small gaps the main suites skip."""

import pytest

from repro.exceptions import ProcessKilled, ScopeViolationError
from repro.sim import Engine
from repro.replication import SystemSpec


class TestEngineEdges:
    def test_abandoned_timer_does_not_advance_clock(self):
        """An interrupted sleeper's dead timer must not stretch the run."""
        engine = Engine()

        def sleeper():
            try:
                yield engine.timeout(1000.0)
            except ProcessKilled:
                return "killed"

        p = engine.process(sleeper())
        engine.schedule(1.0, p.interrupt)
        engine.run()
        assert p.value == "killed"
        assert engine.now == 1.0  # not 1000.0

    def test_abandoned_timer_at_queue_head_skipped_in_run_until(self):
        engine = Engine()

        def sleeper():
            try:
                yield engine.timeout(5.0)
            except ProcessKilled:
                return "killed"

        p = engine.process(sleeper())
        engine.run(until=0.5)
        p.interrupt()
        engine.run(until=10.0)
        assert engine.now == 10.0
        assert p.value == "killed"

    def test_stale_timer_generation_is_ignored(self):
        """A timer entry whose generation no longer matches must not step."""
        engine = Engine()

        def sleeper():
            yield engine.timeout(1.0)
            return "woke"

        p = engine.process(sleeper())
        engine.run(until=0.5)  # parked on the timer now
        stale_gen = p._timer_gen
        p.interrupt()  # bumps the generation, invalidating the heap entry
        live = engine.queued_events
        engine._resume_timer(p, stale_gen)  # direct stale fire: must no-op
        assert engine.queued_events == live  # no step was scheduled
        engine.run()
        assert isinstance(p.exception, ProcessKilled)

    def test_deeply_nested_yield_from_chain(self):
        engine = Engine()

        def leaf():
            yield engine.timeout(1.0)
            return 1

        def wrap(inner, depth):
            result = yield from inner()
            return result + depth

        def chain():
            total = yield from wrap(lambda: wrap(leaf, 10), 100)
            return total

        p = engine.process(chain())
        engine.run()
        assert p.value == 111


class TestNetworkEdges:
    def test_messages_from_multiple_sources_ordered_by_send_time(self):
        from repro.network import Network

        engine = Engine()
        net = Network(engine, 3, message_delay=1.0)
        seen = []
        net.register(2, lambda msg: seen.append(msg.payload))
        net.register(0, lambda msg: None)
        net.register(1, lambda msg: None)
        engine.schedule(0.0, net.send, 0, 2, "m", "from-0")
        engine.schedule(0.5, net.send, 1, 2, "m", "from-1")
        engine.run()
        assert seen == ["from-0", "from-1"]

    def test_flood_of_parked_messages_flushes_completely(self):
        from repro.network import Network

        engine = Engine()
        net = Network(engine, 2)
        seen = []
        net.register(1, lambda msg: seen.append(msg.payload))
        net.register(0, lambda msg: None)
        net.disconnect(1)
        for i in range(500):
            net.send(0, 1, "burst", i)
        engine.run()
        assert seen == []
        net.reconnect(1)
        engine.run()
        assert seen == list(range(500))

    def test_self_send_delivers(self):
        from repro.network import Network

        engine = Engine()
        net = Network(engine, 1)
        seen = []
        net.register(0, lambda msg: seen.append(msg.payload))
        net.send(0, 0, "loop", "me")
        engine.run()
        assert seen == ["me"]


class TestReportEdges:
    def test_format_table_empty_rows(self):
        from repro.metrics.report import format_table

        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestTwoTierEdges:
    def test_local_transactions_cannot_touch_tentative_data(self):
        """'They cannot read or write any tentative data because that would
        make them tentative' — local transactions operate on master copies;
        objects not mastered here are rejected outright."""
        from repro.core import TwoTierSystem
        from repro.txn.ops import WriteOp

        system = TwoTierSystem(
            SystemSpec(num_nodes=2, db_size=4),
            num_base=1,
            mobile_mastered={3: 1},
        )
        with pytest.raises(ScopeViolationError):
            system.submit_local(1, [WriteOp(0, 5)])  # base-mastered object

    def test_local_transaction_sees_master_not_tentative_version(self):
        from repro.core import AlwaysAccept, TwoTierSystem
        from repro.txn.ops import IncrementOp, ReadOp

        system = TwoTierSystem(
            SystemSpec(num_nodes=2, db_size=4, initial_value=10,
                       action_time=0.001),
            num_base=1,
            mobile_mastered={3: 1},
        )
        mobile = system.mobile(1)
        system.disconnect_mobile(1)
        # a tentative write to the mobile-mastered object's *overlay*
        mobile.submit_tentative([IncrementOp(3, 5)], AlwaysAccept())
        system.run()
        assert mobile.read(3) == 15  # tentative view
        # a local (master-copy) transaction reads the real master version
        p = system.submit_local(1, [ReadOp(3)])
        system.run()
        assert p.value.reads == [10]

    def test_empty_tentative_transaction_is_accepted(self):
        from repro.core import AlwaysAccept, TwoTierSystem
        from repro.txn.ops import ReadOp

        system = TwoTierSystem(
            SystemSpec(num_nodes=2, db_size=4, action_time=0.001),
            num_base=1,
        )
        mobile = system.mobile(1)
        system.disconnect_mobile(1)
        mobile.submit_tentative([ReadOp(0)], AlwaysAccept())
        system.run()
        system.reconnect_mobile(1)
        system.run()
        assert system.metrics.tentative_accepted == 1


class TestQuorumEdges:
    def test_exact_boundary_membership(self):
        from repro.replication.quorum import QuorumConfig

        q = QuorumConfig.majority(4)  # quorum = 3
        assert not q.is_write_quorum(2)
        assert q.is_write_quorum(3)

    def test_single_node_quorum(self):
        from repro.replication.quorum import QuorumConfig

        q = QuorumConfig.majority(1)
        assert q.is_write_quorum({0})
        assert q.write_availability(0.9) == pytest.approx(0.9)
