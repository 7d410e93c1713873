"""Tests for workload profiles, the generator, and disconnect schedules."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.replication.lazy_master import LazyMasterSystem
from repro.txn.ops import IncrementOp, WriteOp
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import (
    TransactionProfile,
    increment_op_factory,
    uniform_update_profile,
    write_op_factory,
)
from repro.workload.schedule import DisconnectScheduler
from repro.replication import SystemSpec


class TestProfiles:
    def test_distinct_objects_per_transaction(self):
        profile = uniform_update_profile(actions=5, db_size=20)
        rng = random.Random(0)
        for _ in range(50):
            ops = profile.build(rng)
            oids = [op.oid for op in ops]
            assert len(set(oids)) == 5

    def test_write_profile_produces_writes(self):
        profile = uniform_update_profile(actions=3, db_size=10)
        ops = profile.build(random.Random(0))
        assert all(isinstance(op, WriteOp) for op in ops)

    def test_commutative_profile_produces_increments(self):
        profile = uniform_update_profile(actions=3, db_size=10, commutative=True)
        ops = profile.build(random.Random(0))
        assert all(isinstance(op, IncrementOp) for op in ops)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TransactionProfile(actions=0, db_size=10)
        with pytest.raises(ConfigurationError):
            TransactionProfile(actions=5, db_size=3)
        with pytest.raises(ConfigurationError):
            TransactionProfile(actions=1, db_size=10, hot_fraction=1.5)
        with pytest.raises(ConfigurationError):
            TransactionProfile(actions=1, db_size=10, hot_fraction=0.1,
                               hot_weight=0.5)

    def test_uniform_access_covers_database(self):
        profile = uniform_update_profile(actions=2, db_size=10)
        rng = random.Random(1)
        seen = set()
        for _ in range(300):
            seen.update(op.oid for op in profile.build(rng))
        assert seen == set(range(10))

    def test_hotspot_skews_access(self):
        profile = TransactionProfile(
            actions=1, db_size=100, hot_fraction=0.05, hot_weight=50.0
        )
        rng = random.Random(2)
        hot_hits = 0
        trials = 1000
        for _ in range(trials):
            (op,) = profile.build(rng)
            if op.oid < 5:
                hot_hits += 1
        # hot mass = 5*50=250 vs cold 95: expect ~72% hot, far above 5%
        assert hot_hits / trials > 0.5

    @given(st.integers(1, 6), st.integers(6, 40), st.integers(0, 2**16))
    def test_profile_ops_always_valid(self, actions, db_size, seed):
        profile = uniform_update_profile(actions=actions, db_size=db_size)
        ops = profile.build(random.Random(seed))
        assert len(ops) == actions
        assert all(0 <= op.oid < db_size for op in ops)


class TestGenerator:
    def test_submission_count_tracks_rate(self):
        system = LazyMasterSystem(
            SystemSpec(num_nodes=2, db_size=50, action_time=0.0, seed=1),
        )
        profile = uniform_update_profile(actions=2, db_size=50)
        workload = WorkloadGenerator(system, profile, tps=10.0)
        workload.start(duration=100.0)
        system.run()
        expected = 10.0 * 100.0 * 2  # tps x duration x nodes
        assert workload.submitted == pytest.approx(expected, rel=0.15)
        assert system.metrics.commits == workload.submitted

    def test_node_subset(self):
        from repro.replication.eager_master import EagerMasterSystem

        # eager has no housekeeping transactions, so per-node begin counts
        # reflect user submissions only
        system = EagerMasterSystem(
            SystemSpec(num_nodes=4, db_size=50, action_time=0.0, seed=1),
        )
        profile = uniform_update_profile(actions=1, db_size=50)
        workload = WorkloadGenerator(system, profile, tps=5.0, node_ids=[1])
        workload.start(duration=20.0)
        system.run()
        assert system.nodes[1].tm.begun > 0
        assert system.nodes[3].tm.begun == 0

    def test_deterministic_under_seed(self):
        def run(seed):
            system = LazyMasterSystem(
                SystemSpec(num_nodes=2, db_size=30, action_time=0.001,
                           seed=seed),
            )
            workload = WorkloadGenerator(
                system, uniform_update_profile(actions=2, db_size=30), tps=5.0
            )
            workload.start(duration=30.0)
            system.run()
            return (system.metrics.commits, system.metrics.waits,
                    system.snapshot())

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_validation(self):
        system = LazyMasterSystem(SystemSpec(num_nodes=1, db_size=10))
        profile = uniform_update_profile(actions=1, db_size=10)
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(system, profile, tps=0)
        wl = WorkloadGenerator(system, profile, tps=1)
        with pytest.raises(ConfigurationError):
            wl.start(duration=0)


class TestDisconnectScheduler:
    def test_nodes_cycle_through_disconnects(self):
        system = LazyMasterSystem(
            SystemSpec(num_nodes=3, db_size=10, action_time=0.0, seed=0),
        )
        scheduler = DisconnectScheduler(system, disconnect_time=5.0,
                                        connected_time=1.0)
        scheduler.start(duration=30.0)
        system.run()
        assert scheduler.cycles >= 3 * 3  # ~5 cycles per node over 30s
        # everyone ends connected so the system can drain
        assert all(system.network.is_connected(i) for i in range(3))

    def test_stagger_offsets_first_disconnects(self):
        # two nodes spread across one 10 s period: node 1 starts at 5 s
        system = LazyMasterSystem(SystemSpec(num_nodes=2, db_size=10, seed=0))
        scheduler = DisconnectScheduler(system, disconnect_time=10.0,
                                        connected_time=0.0)
        assert scheduler.stagger == 5.0
        scheduler.start(duration=12.0)
        system.run(until=4.0)
        assert not system.network.is_connected(0)
        assert system.network.is_connected(1)  # still in its stagger offset
        system.run(until=6.0)
        assert not system.network.is_connected(1)

    def test_validation(self):
        system = LazyMasterSystem(SystemSpec(num_nodes=1, db_size=10))
        with pytest.raises(ConfigurationError):
            DisconnectScheduler(system, disconnect_time=0)
        with pytest.raises(ConfigurationError):
            DisconnectScheduler(system, disconnect_time=1.0,
                                connected_time=-1.0)
