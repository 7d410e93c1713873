"""Tests for Lamport timestamps."""

from hypothesis import given
from hypothesis import strategies as st

from repro.storage.versioning import Timestamp, TimestampGenerator


class TestTimestamp:
    def test_total_order_by_counter_then_node(self):
        assert Timestamp(1, 0) < Timestamp(2, 0)
        assert Timestamp(1, 0) < Timestamp(1, 1)
        assert Timestamp(2, 0) > Timestamp(1, 5)

    def test_zero_is_smallest(self):
        assert Timestamp.ZERO < Timestamp(1, 0)
        assert Timestamp.ZERO < Timestamp(0, 0)

    def test_equality_and_hash(self):
        assert Timestamp(3, 1) == Timestamp(3, 1)
        assert hash(Timestamp(3, 1)) == hash(Timestamp(3, 1))
        assert Timestamp(3, 1) != Timestamp(3, 2)

    def test_next_at(self):
        ts = Timestamp(5, 0).next_at(2)
        assert ts == Timestamp(6, 2)
        assert ts > Timestamp(5, 0)

    def test_str_format(self):
        assert str(Timestamp(4, 2)) == "4@2"

    @given(st.integers(0, 1000), st.integers(0, 32),
           st.integers(0, 1000), st.integers(0, 32))
    def test_distinct_pairs_never_equal_compare(self, c1, n1, c2, n2):
        a, b = Timestamp(c1, n1), Timestamp(c2, n2)
        if (c1, n1) != (c2, n2):
            assert (a < b) != (b < a)  # strict total order
        else:
            assert a == b


class TestTimestampGenerator:
    def test_tick_increases(self):
        gen = TimestampGenerator(node_id=3)
        first = gen.tick()
        second = gen.tick()
        assert second > first
        assert first.node_id == 3

    def test_witness_advances_clock(self):
        gen = TimestampGenerator(node_id=0)
        gen.tick()
        gen.witness(Timestamp(100, 5))
        assert gen.tick() > Timestamp(100, 5)

    def test_witness_older_timestamp_is_noop(self):
        gen = TimestampGenerator(node_id=0)
        for _ in range(10):
            gen.tick()
        gen.witness(Timestamp(2, 9))
        assert gen.current_counter == 10

    def test_two_nodes_never_collide(self):
        a = TimestampGenerator(node_id=0)
        b = TimestampGenerator(node_id=1)
        stamps = [a.tick() for _ in range(20)] + [b.tick() for _ in range(20)]
        assert len(set(stamps)) == 40

