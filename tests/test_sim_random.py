"""Tests for seeded random substreams."""

from repro.sim.random_source import RandomSource, derive_seed


def test_derive_seed_is_stable():
    assert derive_seed(0, "x") != derive_seed(0, "y")
    assert derive_seed(0, "x") != derive_seed(1, "x")
    # pinned values: must never change across runs, machines or versions
    assert derive_seed(0, "x") == 11287871529720146943
    assert derive_seed(1996, "node-0/arrivals") == 6843048704498123206
    assert derive_seed(11, "spawn:faults/11") == 8947823864149711472
    assert RandomSource(1996).stream("node-0/arrivals").random() == 0.9476788301583144


def test_streams_are_reproducible():
    a = RandomSource(seed=7).stream("s")
    b = RandomSource(seed=7).stream("s")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_named_streams_are_independent():
    source = RandomSource(seed=7)
    s1 = [source.stream("one").random() for _ in range(5)]
    s2 = [source.stream("two").random() for _ in range(5)]
    assert s1 != s2


def test_stream_is_cached_not_reseeded():
    source = RandomSource(seed=7)
    first = source.stream("s").random()
    second = source.stream("s").random()
    assert first != second  # continuing the stream, not restarting it


def test_adding_stream_does_not_perturb_existing():
    source_a = RandomSource(seed=3)
    sa = source_a.stream("main")
    first = [sa.random() for _ in range(3)]

    source_b = RandomSource(seed=3)
    source_b.stream("unrelated").random()  # extra consumer
    sb = source_b.stream("main")
    second = [sb.random() for _ in range(3)]
    assert first == second


def test_spawn_creates_independent_child():
    parent = RandomSource(seed=5)
    child = parent.spawn("child")
    assert child.seed != parent.seed
    p = [parent.stream("s").random() for _ in range(3)]
    c = [child.stream("s").random() for _ in range(3)]
    assert p != c


def test_convenience_draws():
    source = RandomSource(seed=1)
    assert source.expovariate(10.0) > 0
    assert 1 <= source.uniform_int(1, 6) <= 6
    sample = source.sample([1, 2, 3, 4, 5], 3)
    assert len(sample) == 3
    assert len(set(sample)) == 3


def test_different_seeds_differ():
    a = [RandomSource(seed=1).stream("s").random() for _ in range(3)]
    b = [RandomSource(seed=2).stream("s").random() for _ in range(3)]
    assert a != b
