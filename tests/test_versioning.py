"""Tests for Lamport timestamps."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.storage.versioning import (
    MAX_NODE_ID,
    NODE_BITS,
    ZERO,
    TimestampGenerator,
    counter_of,
    format_stamp,
    node_of,
    stamp,
)

_counters = st.integers(min_value=0, max_value=2**70)
_nodes = st.integers(min_value=-1, max_value=MAX_NODE_ID)
_past_the_width = st.one_of(
    st.integers(max_value=-2), st.integers(min_value=MAX_NODE_ID + 1)
)


class TestTimestamp:
    def test_total_order_by_counter_then_node(self):
        assert stamp(1, 0) < stamp(2, 0)
        assert stamp(1, 0) < stamp(1, 1)
        assert stamp(2, 0) > stamp(1, 5)

    def test_zero_is_smallest(self):
        assert ZERO < stamp(1, 0)
        assert ZERO < stamp(0, 0)
        assert ZERO == stamp(0, -1) == 0

    def test_equality_and_hash(self):
        assert stamp(3, 1) == stamp(3, 1)
        assert hash(stamp(3, 1)) == hash(stamp(3, 1))
        assert stamp(3, 1) != stamp(3, 2)

    def test_str_format(self):
        assert format_stamp(stamp(4, 2)) == "4@2"
        assert format_stamp(ZERO) == "0@-1"

    @given(st.integers(0, 1000), st.integers(0, 32),
           st.integers(0, 1000), st.integers(0, 32))
    def test_distinct_pairs_never_equal_compare(self, c1, n1, c2, n2):
        a, b = stamp(c1, n1), stamp(c2, n2)
        if (c1, n1) != (c2, n2):
            assert (a < b) != (b < a)  # strict total order
        else:
            assert a == b


class TestEncoding:
    """One int per stamp: ``(counter << NODE_BITS) | (node_id + 1)``."""

    @given(_counters, _nodes, _counters, _nodes)
    def test_int_order_is_the_pairs_order(self, c1, n1, c2, n2):
        a, b = stamp(c1, n1), stamp(c2, n2)
        assert type(a) is int
        assert (a < b) == ((c1, n1) < (c2, n2))
        assert (a == b) == ((c1, n1) == (c2, n2))

    @given(_counters, _nodes)
    def test_counter_and_node_round_trip(self, counter, node_id):
        ts = stamp(counter, node_id)
        assert (counter_of(ts), node_of(ts)) == (counter, node_id)
        assert format_stamp(ts) == f"{counter}@{node_id}"

    @given(_nodes, st.integers(1, 50))
    def test_zero_precedes_every_tick(self, node_id, ticks):
        gen = TimestampGenerator(node_id)
        for _ in range(ticks):
            ts = gen.tick()
            assert ZERO < ts and node_of(ts) == node_id
        assert counter_of(ts) == ticks

    @given(_nodes, _counters, _nodes)
    def test_a_tick_after_a_witness_is_strictly_later(self, node_id, counter, sender):
        gen = TimestampGenerator(node_id)
        seen = stamp(counter, sender)
        gen.witness(seen)
        assert gen.tick() > seen

    @given(_past_the_width)
    def test_a_node_id_past_the_width_is_refused(self, node_id):
        with pytest.raises(ConfigurationError, match="node bits"):
            stamp(0, node_id)
        with pytest.raises(ConfigurationError, match="node bits"):
            TimestampGenerator(node_id)

    def test_the_width_covers_the_largest_network(self):
        assert NODE_BITS == 16 and MAX_NODE_ID == 65_534
        assert TimestampGenerator(10_000).tick() == stamp(1, 10_000)
        with pytest.raises(ConfigurationError):
            stamp(-1, 0)


class TestTimestampGenerator:
    def test_tick_increases(self):
        gen = TimestampGenerator(node_id=3)
        first = gen.tick()
        second = gen.tick()
        assert second > first
        assert node_of(first) == 3

    def test_witness_advances_clock(self):
        gen = TimestampGenerator(node_id=0)
        gen.tick()
        gen.witness(stamp(100, 5))
        assert gen.tick() > stamp(100, 5)

    def test_witness_older_timestamp_is_noop(self):
        gen = TimestampGenerator(node_id=0)
        for _ in range(10):
            gen.tick()
        gen.witness(stamp(2, 9))
        assert gen.current_counter == 10

    def test_two_nodes_never_collide(self):
        a = TimestampGenerator(node_id=0)
        b = TimestampGenerator(node_id=1)
        stamps = [a.tick() for _ in range(20)] + [b.tick() for _ in range(20)]
        assert len(set(stamps)) == 40
