"""Regression tests: serializable reads must release their shared locks.

A transaction that only *reads* at some node still takes shared locks there
under ``lock_reads=True``; every strategy must include such nodes in its
commit/abort release set, or the locks leak and the system convoys to a halt
(found by the serializability ablation benchmark).
"""

import pytest

from repro.core import AlwaysAccept, TwoTierSystem
from repro.replication.eager_group import EagerGroupSystem
from repro.replication.eager_master import EagerMasterSystem
from repro.replication.lazy_master import LazyMasterSystem
from repro.txn.ops import ReadOp, WriteOp
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import TransactionProfile
from repro.replication import SystemSpec
from tests.determinism_helpers import read_write_factory


@pytest.mark.parametrize("cls", [EagerGroupSystem, EagerMasterSystem,
                                 LazyMasterSystem])
def test_read_only_transaction_releases_shared_locks(cls):
    system = cls(SystemSpec(num_nodes=3, db_size=10, action_time=0.001,
                            lock_reads=True))
    p = system.submit(1, [ReadOp(4), ReadOp(7)])
    system.run()
    assert p.value.state.value == "committed"
    for node in system.nodes:
        node.tm.assert_quiescent()
        assert node.locks.holders(4) == {}
        assert node.locks.holders(7) == {}


@pytest.mark.parametrize("cls", [EagerGroupSystem, EagerMasterSystem,
                                 LazyMasterSystem])
def test_mixed_read_write_workload_quiesces_under_read_locks(cls):
    system = cls(SystemSpec(num_nodes=3, db_size=40, action_time=0.005,
                            lock_reads=True, seed=9))
    profile = TransactionProfile(actions=3, db_size=40,
                                 op_factory=read_write_factory)
    workload = WorkloadGenerator(system, profile, tps=3.0)
    workload.start(40.0)
    system.run()
    assert system.metrics.commits > 50  # no convoy collapse
    assert system.converged()
    for node in system.nodes:
        node.tm.assert_quiescent()


def test_two_tier_base_replay_releases_read_locks():
    system = TwoTierSystem(
        SystemSpec(num_nodes=3, db_size=10, action_time=0.001, lock_reads=True,
                   initial_value=5),
        num_base=2,
    )
    mobile = system.mobile(2)
    system.disconnect_mobile(2)
    # tentative txn reads one object (mastered at base 1) and writes another
    mobile.submit_tentative([ReadOp(1), WriteOp(0, 42)], AlwaysAccept())
    system.run()
    system.reconnect_mobile(2)
    system.run()
    assert system.metrics.tentative_accepted == 1
    for node in system.base_nodes():
        node.tm.assert_quiescent()
        assert node.locks.holders(1) == {}
