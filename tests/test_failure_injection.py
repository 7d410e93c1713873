"""Failure-injection tests: the system under adversity.

Disconnections mid-flight, reordered propagation, participant refusals,
deadlock storms — the invariants (convergence after heal, no lost locks,
base-tier consistency) must hold through all of it.
"""

import pytest

from repro.core import AlwaysAccept, NonNegativeOutputs, TwoTierSystem
from repro.replication.eager_group import EagerGroupSystem
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.lazy_master import LazyMasterSystem
from repro.txn.ops import IncrementOp, WriteOp
from repro.replication import SystemSpec


class TestMidFlightDisconnects:
    def test_lazy_group_node_dies_during_propagation_and_heals(self):
        system = LazyGroupSystem(
            SystemSpec(num_nodes=3, db_size=10, action_time=0.001,
                       message_delay=2.0, seed=1),
        )
        system.submit(0, [WriteOp(0, 1)])
        system.run(until=1.0)  # replica updates still in flight
        system.network.disconnect(2)
        system.run()  # node 2 missed the update
        assert system.nodes[2].store.value(0) == 0
        system.network.reconnect(2)
        system.run()
        assert system.converged()

    def test_lazy_master_slave_dies_and_heals_mid_broadcast(self):
        system = LazyMasterSystem(
            SystemSpec(num_nodes=3, db_size=9, action_time=0.001,
                       message_delay=1.0, seed=2),
        )
        system.submit(0, [WriteOp(0, 11)])  # master: node 0
        system.run(until=0.5)
        system.network.disconnect(1)
        system.submit(0, [WriteOp(0, 22)])  # second update while 1 is dark
        system.run()
        assert system.nodes[1].store.value(0) == 0
        system.network.reconnect(1)
        system.run()
        assert system.nodes[1].store.value(0) == 22
        assert system.converged()

    def test_repeated_flapping_still_converges(self):
        system = LazyGroupSystem(
            SystemSpec(num_nodes=3, db_size=6, action_time=0.001,
                       message_delay=0.5, seed=3),
        )
        for round_number in range(5):
            victim = round_number % 3
            system.network.disconnect(victim)
            system.submit((victim + 1) % 3, [IncrementOp(0, 1)])
            system.run()
            system.network.reconnect(victim)
            system.run()
        assert system.converged()
        for node in system.nodes:
            node.tm.assert_quiescent()


class TestReorderedPropagation:
    def test_out_of_order_slave_updates_converge_by_timestamp(self):
        """A slow first broadcast arrives after a fast second one; the stale
        install must be suppressed, not regress the replica."""
        system = LazyMasterSystem(
            SystemSpec(num_nodes=2, db_size=4, action_time=0.0, seed=4),
        )
        oid = 0  # mastered at node 0
        # send the first update with a large extra delay by disconnecting
        # the slave so the first broadcast parks, then committing a second
        system.network.disconnect(1)
        system.submit(0, [WriteOp(oid, 1)])
        system.run()
        system.submit(0, [WriteOp(oid, 2)])
        system.run()
        system.network.reconnect(1)  # both arrive now, in order
        system.run()
        assert system.nodes[1].store.value(oid) == 2
        assert system.converged()

    def test_duplicate_and_stale_deliveries_are_harmless(self):
        from repro.replication.base import ReplicaUpdate

        system = LazyMasterSystem(
            SystemSpec(num_nodes=2, db_size=4, action_time=0.0, seed=5),
        )
        p = system.submit(0, [WriteOp(1, 7)])
        system.run()
        txn = p.value
        updates = [
            ReplicaUpdate(oid=u.oid, old_ts=u.old_ts, new_ts=u.new_ts,
                          new_value=u.new_value, op=u.op,
                          root_txn_id=txn.txn_id)
            for u in txn.updates
        ]
        before = system.nodes[1].store.snapshot()
        for _ in range(3):  # triple delivery
            system.network.send(0, 1, "slave-update", (updates, 0))
        system.run()
        assert system.nodes[1].store.snapshot() == before
        assert system.converged()


class TestDeadlockStorms:
    def test_all_pairs_opposite_orders(self):
        system = EagerGroupSystem(
            SystemSpec(num_nodes=4, db_size=3, action_time=0.002, seed=6),
        )
        submitted = 0
        for origin in range(4):
            system.submit(origin, [WriteOp(0, origin), WriteOp(1, origin),
                                   WriteOp(2, origin)])
            system.submit(origin, [WriteOp(2, origin), WriteOp(1, origin),
                                   WriteOp(0, origin)])
            submitted += 2
        system.run()
        assert system.metrics.commits + system.metrics.aborts == submitted
        assert system.converged()
        for node in system.nodes:
            node.tm.assert_quiescent()

    def test_retry_until_success_under_storm(self):
        system = EagerGroupSystem(
            SystemSpec(num_nodes=3, db_size=2, action_time=0.002, seed=7,
                       retry_deadlocks=True, max_retries=100),
        )
        processes = []
        for origin in range(3):
            for _ in range(4):
                processes.append(
                    system.submit(origin, [IncrementOp(0, 1),
                                           IncrementOp(1, 1)])
                )
        system.run()
        committed = sum(
            1 for p in processes if p.value.state.value == "committed"
        )
        assert committed == 12  # retries eventually pushed everything through
        assert system.nodes[0].store.value(0) == 12
        assert system.converged()


class TestTwoTierAdversity:
    def test_mobile_disconnects_again_before_notices_arrive(self):
        system = TwoTierSystem(
            SystemSpec(num_nodes=2, db_size=4, action_time=0.001,
                       message_delay=1.0, initial_value=100),
            num_base=1,
        )
        mobile = system.mobile(1)
        system.disconnect_mobile(1)
        mobile.submit_tentative([IncrementOp(0, -10)], AlwaysAccept())
        system.run()
        system.reconnect_mobile(1)
        system.run(until=system.engine.now + 0.1)  # notice still in flight
        system.disconnect_mobile(1)  # drops off again; notice parks
        system.run()
        assert mobile.notices == []
        system.network.reconnect(1)
        system.run()
        assert len(mobile.notices) == 1  # delivered on the next sync
        assert system.base_divergence() == 0

    def test_base_node_load_during_replay_storm(self):
        system = TwoTierSystem(
            SystemSpec(num_nodes=6, db_size=6, action_time=0.001,
                       initial_value=50, seed=8),
            num_base=2,
        )
        for mid in system.mobiles:
            system.disconnect_mobile(mid)
        for mobile in system.mobiles.values():
            for _ in range(5):
                mobile.submit_tentative([IncrementOp(0, -2)],
                                        NonNegativeOutputs())
        system.run()
        # everyone reconnects at the same instant: replay storm at the bases
        for mid in system.mobiles:
            system.reconnect_mobile(mid)
        system.run()
        total = system.metrics.tentative_accepted + \
            system.metrics.tentative_rejected
        assert total == 20
        # 50 / 2 = 25 debits would fit; all 20 were submitted, all accepted
        assert system.metrics.tentative_accepted == 20
        assert system.nodes[0].store.value(0) == 10
        assert system.base_divergence() == 0
        assert system.divergence() == 0

    def test_a_delivery_a_crashed_mobile_refuses_is_counted_once(self):
        """Reconnecting a crashed mobile hands it its parked update, which
        it refuses and parks again; recovery delivers it for good.  The
        network counts that one delivery once, as the node does."""
        system = TwoTierSystem(
            SystemSpec(num_nodes=3, db_size=4, action_time=0.001),
            num_base=1,
        )
        mobile = 1
        system.crash_node(mobile)
        system.submit(0, [WriteOp(0, 7)])
        system.run()
        system.reconnect_mobile(mobile)
        system.run()
        assert system.network.parked_inbound(mobile) == 1  # refused
        system.recover_node(mobile)
        system.run()
        assert system.nodes[mobile].store.value(0) == 7
        assert system.metrics.messages == 2
        assert system.network.messages_delivered == system.metrics.messages
