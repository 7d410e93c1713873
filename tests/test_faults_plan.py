"""Tests for fault plans (parsing, validation, serialisation) and the
fault injector's wire tap."""

import json
import math

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    Crash,
    FaultInjector,
    FaultPlan,
    LinkFaults,
    Partition,
)
from repro.faults.plan import FOREVER
from repro.network import Network
from repro.sim import Engine, RandomSource


# --------------------------------------------------------------------- #
# component validation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("field_", ["drop", "duplicate", "reorder"])
@pytest.mark.parametrize("value", [-0.1, 1.1])
def test_link_probabilities_must_be_in_unit_interval(field_, value):
    with pytest.raises(ConfigurationError):
        LinkFaults(**{field_: value})


def test_link_negative_delays_rejected():
    with pytest.raises(ConfigurationError):
        LinkFaults(jitter=-0.5)
    with pytest.raises(ConfigurationError):
        LinkFaults(reorder_window=-1.0)


def test_link_empty_and_lossless():
    assert LinkFaults().empty
    assert LinkFaults().lossless
    assert not LinkFaults(duplicate=0.5).empty
    assert LinkFaults(duplicate=0.5, reorder=0.5, jitter=0.1).lossless
    assert not LinkFaults(drop=0.01).lossless


def test_partition_validation():
    with pytest.raises(ConfigurationError):
        Partition(start=-1.0, duration=2.0, left=(0,), right=(1,))
    with pytest.raises(ConfigurationError):
        Partition(start=0.0, duration=0.0, left=(0,), right=(1,))
    with pytest.raises(ConfigurationError):
        Partition(start=0.0, duration=2.0, left=(), right=(1,))
    with pytest.raises(ConfigurationError):
        Partition(start=0.0, duration=2.0, left=(0, 1), right=(1, 2))


def test_partition_heal_properties():
    finite = Partition(start=1.0, duration=2.0, left=(0,), right=(1,))
    assert finite.heals
    assert finite.heal_time == 3.0
    forever = Partition(start=1.0, duration=FOREVER, left=(0,), right=(1,))
    assert not forever.heals


def test_crash_validation_and_properties():
    with pytest.raises(ConfigurationError):
        Crash(node=0, at=-1.0, downtime=1.0)
    with pytest.raises(ConfigurationError):
        Crash(node=0, at=0.0, downtime=0.0)
    crash = Crash(node=2, at=5.0, downtime=3.0)
    assert crash.recovers
    assert crash.recovery_time == 8.0
    assert not Crash(node=2, at=5.0, downtime=FOREVER).recovers


def test_overlapping_crash_windows_rejected():
    with pytest.raises(ConfigurationError):
        FaultPlan(crashes=(
            Crash(node=1, at=2.0, downtime=5.0),
            Crash(node=1, at=4.0, downtime=1.0),
        ))
    # back-to-back windows on one node, and overlap across *different*
    # nodes, are both fine
    FaultPlan(crashes=(
        Crash(node=1, at=2.0, downtime=2.0),
        Crash(node=1, at=4.0, downtime=1.0),
        Crash(node=0, at=3.0, downtime=10.0),
    ))


def test_plan_empty_and_lossless():
    assert FaultPlan().empty
    assert FaultPlan().lossless
    healing = FaultPlan(
        link=LinkFaults(duplicate=0.2),
        partitions=(Partition(start=1.0, duration=2.0, left=(0,), right=(1,)),),
        crashes=(Crash(node=1, at=1.0, downtime=2.0),),
    )
    assert not healing.empty
    assert healing.lossless
    assert not FaultPlan(link=LinkFaults(drop=0.1)).lossless
    assert not FaultPlan(
        partitions=(Partition(start=1.0, duration=FOREVER,
                              left=(0,), right=(1,)),)
    ).lossless
    assert not FaultPlan(
        crashes=(Crash(node=0, at=1.0, downtime=FOREVER),)
    ).lossless


# --------------------------------------------------------------------- #
# CLI spec parsing
# --------------------------------------------------------------------- #


def test_from_spec_link_keys():
    plan = FaultPlan.from_spec(
        "drop=0.1, dup=0.2, reorder=0.3, jitter=0.05",
        num_nodes=3, duration=20.0,
    )
    assert plan.link.drop == 0.1
    assert plan.link.duplicate == 0.2
    assert plan.link.reorder == 0.3
    assert plan.link.jitter == 0.05
    assert not plan.partitions and not plan.crashes
    # "duplicate" is an accepted alias for "dup"
    assert FaultPlan.from_spec(
        "duplicate=0.4", num_nodes=3, duration=20.0
    ).link.duplicate == 0.4


def test_from_spec_partition_splits_nodes_in_half():
    plan = FaultPlan.from_spec("partition=5", num_nodes=4, duration=20.0)
    (p,) = plan.partitions
    assert p.start == 5.0  # 25% of the run
    assert p.duration == 5.0
    assert p.left == (0, 1)
    assert p.right == (2, 3)


def test_from_spec_partition_forever():
    plan = FaultPlan.from_spec("partition=forever", num_nodes=3, duration=20.0)
    (p,) = plan.partitions
    assert math.isinf(p.duration)
    assert not p.heals


def test_from_spec_crash_targets_last_node():
    plan = FaultPlan.from_spec("crash=4", num_nodes=3, duration=20.0)
    (c,) = plan.crashes
    assert c.node == 2
    assert c.at == 5.0
    assert c.downtime == 4.0
    assert not FaultPlan.from_spec(
        "crash=forever", num_nodes=3, duration=20.0
    ).crashes[0].recovers


@pytest.mark.parametrize("spec", [
    "banana=1",          # unknown key
    "drop",              # missing value
    "drop=abc",          # not a number
    "partition=nope",    # not a number or 'forever'
    "partition=0",       # non-positive window
    "crash=-1",
    "drop=1.5",          # out-of-range probability (via LinkFaults)
])
def test_from_spec_rejects_bad_specs(spec):
    with pytest.raises(ConfigurationError):
        FaultPlan.from_spec(spec, num_nodes=3, duration=20.0)


def test_from_spec_partition_needs_two_nodes():
    with pytest.raises(ConfigurationError):
        FaultPlan.from_spec("partition=2", num_nodes=1, duration=20.0)


def test_from_spec_carries_fault_seed():
    plan = FaultPlan.from_spec("drop=0.1", num_nodes=3, duration=20.0,
                               fault_seed=7)
    assert plan.fault_seed == 7


# --------------------------------------------------------------------- #
# serialisation
# --------------------------------------------------------------------- #


def test_to_dict_round_trips_including_infinities():
    plan = FaultPlan(
        link=LinkFaults(drop=0.05, duplicate=0.1, reorder=0.2,
                        reorder_window=0.3, jitter=0.01),
        partitions=(
            Partition(start=2.0, duration=FOREVER, left=(0,), right=(1, 2)),
        ),
        crashes=(Crash(node=2, at=5.0, downtime=FOREVER),),
        fault_seed=3,
    )
    data = plan.to_dict()
    assert data == {
        "link": {"drop": 0.05, "duplicate": 0.1, "reorder": 0.2,
                 "reorder_window": 0.3, "jitter": 0.01},
        "partitions": [
            {"start": 2.0, "duration": "inf", "left": [0], "right": [1, 2]},
        ],
        "crashes": [{"node": 2, "at": 5.0, "downtime": "inf"}],
        "fault_seed": 3,
    }
    # strict JSON (the cache-key serialiser rejects NaN/Infinity tokens)
    encoded = json.dumps(data, sort_keys=True, allow_nan=False)
    assert json.loads(encoded) == data


def test_to_dict_is_deterministic():
    plan = FaultPlan.from_spec("drop=0.05,partition=2", num_nodes=3,
                               duration=20.0)
    assert plan.to_dict() == plan.to_dict() == {
        "link": {"drop": 0.05, "duplicate": 0.0, "reorder": 0.0,
                 "reorder_window": 0.1, "jitter": 0.0},
        "partitions": [
            {"start": 5.0, "duration": 2.0, "left": [0], "right": [1, 2]},
        ],
        "crashes": [],
        "fault_seed": 0,
    }


# --------------------------------------------------------------------- #
# injector wire tap
# --------------------------------------------------------------------- #


class _StubSystem:
    """The minimal surface the injector needs: engine, network, rng, trace."""

    def __init__(self, num_nodes=3, seed=7, message_delay=0.0):
        self.engine = Engine()
        self.network = Network(self.engine, num_nodes,
                               message_delay=message_delay)
        self.rng = RandomSource(seed)

    def _trace(self, category, **detail):
        pass


def _faulty_net(plan, num_nodes=3, seed=7, message_delay=0.0):
    system = _StubSystem(num_nodes=num_nodes, seed=seed,
                         message_delay=message_delay)
    injector = FaultInjector(system, plan).install()
    inboxes = {i: [] for i in range(num_nodes)}
    for i in range(num_nodes):
        system.network.register(i, lambda msg, i=i: inboxes[i].append(msg))
    return system, injector, inboxes


def test_drop_one_loses_every_message():
    system, injector, inboxes = _faulty_net(FaultPlan(link=LinkFaults(drop=1.0)))
    for i in range(5):
        system.network.send(0, 1, "seq", i)
    system.engine.run()
    assert inboxes[1] == []
    assert injector.dropped == 5
    assert system.network.messages_delivered == 0


def test_duplicate_one_delivers_everything_twice():
    system, injector, inboxes = _faulty_net(
        FaultPlan(link=LinkFaults(duplicate=1.0))
    )
    system.network.send(0, 1, "ping", "x")
    system.engine.run()
    assert [m.payload for m in inboxes[1]] == ["x", "x"]
    assert injector.duplicated == 1


def test_self_sends_are_exempt_from_link_faults():
    # retry timers are modelled as self-sends; they never touch a link, so
    # even drop=1.0 must not eat them
    system, injector, inboxes = _faulty_net(FaultPlan(link=LinkFaults(drop=1.0)))
    system.network.send(1, 1, "timer", "tick")
    system.engine.run()
    assert [m.payload for m in inboxes[1]] == ["tick"]
    assert injector.dropped == 0


def test_jitter_delays_within_bounds():
    system, injector, inboxes = _faulty_net(
        FaultPlan(link=LinkFaults(jitter=0.5))
    )
    for i in range(10):
        system.network.send(0, 1, "seq", i)
    system.engine.run()
    assert len(inboxes[1]) == 10
    assert injector.delayed == 10
    for msg in inboxes[1]:
        assert 0.0 < msg.deliver_time <= 0.5


def test_same_seed_gives_identical_fault_decisions():
    plan = FaultPlan(link=LinkFaults(drop=0.5, duplicate=0.3, jitter=0.1))

    def run(seed):
        system, injector, inboxes = _faulty_net(plan, seed=seed)
        for i in range(100):
            system.network.send(0, 1, "seq", i)
        system.engine.run()
        return [(m.payload, m.deliver_time) for m in inboxes[1]], injector.stats()

    assert run(7) == run(7)


def test_different_fault_seed_reshuffles_decisions():
    link = LinkFaults(drop=0.5)

    def run(fault_seed):
        system, _, inboxes = _faulty_net(
            FaultPlan(link=link, fault_seed=fault_seed)
        )
        for i in range(100):
            system.network.send(0, 1, "seq", i)
        system.engine.run()
        return [m.payload for m in inboxes[1]]

    assert run(0) != run(99)


def test_install_twice_rejected():
    system = _StubSystem()
    injector = FaultInjector(system, FaultPlan(link=LinkFaults(drop=0.1)))
    injector.install()
    with pytest.raises(ConfigurationError):
        injector.install()


def test_one_injector_per_network():
    system = _StubSystem()
    FaultInjector(system, FaultPlan(link=LinkFaults(drop=0.1))).install()
    with pytest.raises(ConfigurationError):
        FaultInjector(system, FaultPlan(link=LinkFaults(drop=0.2))).install()


def test_empty_link_plan_skips_the_wire_tap():
    # a timetable-only plan (partitions/crashes) leaves the hot message
    # path untouched
    plan = FaultPlan(
        partitions=(Partition(start=1.0, duration=1.0, left=(0,), right=(1,)),)
    )
    system = _StubSystem()
    FaultInjector(system, plan).install()
    assert system.network.fault_injector is None


def test_partition_timeline_cuts_and_heals_on_schedule():
    plan = FaultPlan(
        partitions=(
            Partition(start=1.0, duration=2.0, left=(0,), right=(1, 2)),
        )
    )
    system, injector, inboxes = _faulty_net(plan)
    engine = system.engine
    delivered_early = []
    engine.schedule_at(0.5, lambda: system.network.send(0, 1, "pre", "a"))
    engine.schedule_at(
        0.9, lambda: delivered_early.append(len(inboxes[1]))
    )
    engine.schedule_at(2.0, lambda: system.network.send(0, 2, "mid", "b"))
    engine.schedule_at(
        2.5, lambda: delivered_early.append(len(inboxes[2]))
    )
    engine.run()
    # before the cut: immediate delivery; during: parked; after heal: flushed
    assert delivered_early == [1, 0]
    assert [m.payload for m in inboxes[2]] == ["b"]
    assert inboxes[2][0].deliver_time == pytest.approx(3.0)
    assert injector.partitions_started == 1
    assert injector.partitions_healed == 1
