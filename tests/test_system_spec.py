"""SystemSpec construction API: the spec path, its validation, and the
absence of any other path.

Every strategy constructor takes one :class:`~repro.replication.SystemSpec`
and nothing else positionally; the pre-spec ``Cls(num_nodes, db_size, ...)``
forms are rejected outright.
"""

import warnings

import pytest

from repro.core.protocol import TwoTierSystem
from repro.exceptions import ConfigurationError
from repro.harness.experiment import STRATEGY_CLASSES
from repro.placement import HashShardPlacement
from repro.replication import (
    EagerGroupSystem,
    LazyGroupSystem,
    LazyMasterSystem,
    SystemSpec,
)


@pytest.mark.parametrize("name", sorted(STRATEGY_CLASSES))
def test_pre_spec_constructor_forms_are_rejected(name):
    cls = STRATEGY_CLASSES[name]
    spec = SystemSpec(num_nodes=3, db_size=40)
    rejected = (TypeError, ConfigurationError)
    with pytest.raises(rejected):
        cls(3, 40)
    with pytest.raises(rejected):
        cls(num_nodes=3, db_size=40)
    # a spec cannot be topped up with the old arguments either
    with pytest.raises(rejected):
        cls(spec, 40)
    with pytest.raises(rejected):
        cls(spec, db_size=40)
    if cls is TwoTierSystem:
        with pytest.raises(rejected):
            cls(num_base=2, num_mobile=1, db_size=100)
        with pytest.raises(rejected):
            cls(spec, num_mobile=2)


def test_spec_signature_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        LazyGroupSystem(SystemSpec(num_nodes=3, db_size=40))


def test_spec_validation():
    with pytest.raises(ConfigurationError, match="num_nodes"):
        SystemSpec(num_nodes=0, db_size=10)
    with pytest.raises(ConfigurationError):
        SystemSpec(num_nodes=2, db_size=10, placement="hash:k=3")  # not parsed
    with pytest.raises(ConfigurationError, match="SystemSpec"):
        LazyGroupSystem(3)  # the spec itself is not optional


def test_retry_deadlocks_tristate_defaults():
    flat = LazyMasterSystem(SystemSpec(num_nodes=2, db_size=20))
    assert flat.retry_deadlocks is False
    tiered = TwoTierSystem(SystemSpec(num_nodes=3, db_size=20), num_base=1)
    assert tiered.retry_deadlocks is True
    forced = LazyMasterSystem(
        SystemSpec(num_nodes=2, db_size=20, retry_deadlocks=True)
    )
    assert forced.retry_deadlocks is True
    untiered = TwoTierSystem(
        SystemSpec(num_nodes=3, db_size=20, retry_deadlocks=False), num_base=1
    )
    assert untiered.retry_deadlocks is False


def test_two_tier_spec_counts_base_plus_mobiles():
    system = TwoTierSystem(SystemSpec(num_nodes=5, db_size=20), num_base=2)
    assert system.num_base == 2
    assert system.num_mobile == 3
    assert system.num_nodes == 5


def test_spec_carries_placement_through_to_stores():
    spec = SystemSpec(
        num_nodes=5, db_size=50,
        placement=HashShardPlacement(replication_factor=2),
    )
    system = EagerGroupSystem(spec)
    assert system.placement.replication_factor == 2
    # logical residency follows the placement; records themselves
    # materialise lazily on first write
    assert sum(len(list(node.store.oids())) for node in system.nodes) == 2 * 50
    assert sum(node.store.materialized for node in system.nodes) == 0
