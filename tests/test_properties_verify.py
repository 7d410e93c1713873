"""Property-based tests for the history verifier."""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify import ConflictGraph, History

# a schedule step: (node, txn, oid, kind)
step_strategy = st.tuples(
    st.integers(0, 2),
    st.integers(1, 5),
    st.integers(0, 2),
    st.sampled_from(["r", "w"]),
)


def build(steps, committed):
    h = History()
    for node, txn, oid, kind in steps:
        if kind == "r":
            h.record_read(node, txn, oid)
        else:
            h.record_write(node, txn, oid)
    for txn in committed:
        h.mark_committed(txn)
    return h


@settings(max_examples=100, deadline=None)
@given(st.lists(step_strategy, max_size=30))
def test_serial_schedules_always_serializable(steps):
    """Running transactions one after another (grouped by txn id) is the
    definition of serial — the checker must always accept it."""
    h = History()
    ordered = sorted(steps, key=lambda s: s[1])  # group by transaction
    for node, txn, oid, kind in ordered:
        if kind == "r":
            h.record_read(node, txn, oid)
        else:
            h.record_write(node, txn, oid)
        h.mark_committed(txn)
    graph = h.conflict_graph()
    assert graph.is_serializable()
    order = graph.serial_order()
    assert order == sorted(order)


@settings(max_examples=100, deadline=None)
@given(st.lists(step_strategy, max_size=30),
       st.sets(st.integers(1, 5)))
def test_verdict_is_deterministic(steps, committed):
    a = build(steps, committed).conflict_graph()
    b = build(steps, committed).conflict_graph()
    assert a.is_serializable() == b.is_serializable()
    assert a.edge_count() == b.edge_count()


@settings(max_examples=100, deadline=None)
@given(st.lists(step_strategy, max_size=30), st.sets(st.integers(1, 5)))
def test_cycle_witness_is_real(steps, committed):
    """Whenever the checker says non-serializable, the returned cycle must
    actually exist edge by edge."""
    graph = build(steps, committed).conflict_graph()
    cycle = graph.find_cycle()
    if cycle is None:
        # serial_order must succeed and respect every edge
        order = graph.serial_order()
        position = {txn: i for i, txn in enumerate(order)}
        for src, dsts in graph.edges.items():
            for dst in dsts:
                assert position[src] < position[dst]
    else:
        assert len(cycle) >= 1
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            assert dst in graph.edges.get(src, set()), (cycle, graph.edges)


@settings(max_examples=100, deadline=None)
@given(st.lists(step_strategy, max_size=30), st.sets(st.integers(1, 5)))
def test_committing_fewer_transactions_never_creates_anomalies(steps, committed):
    """Aborting transactions can only remove conflicts."""
    full = build(steps, committed).conflict_graph()
    if full.is_serializable():
        for drop in list(committed):
            reduced = build(steps, committed - {drop}).conflict_graph()
            assert reduced.is_serializable()


@settings(max_examples=50, deadline=None)
@given(st.lists(step_strategy, max_size=20))
def test_read_only_histories_always_serializable(steps):
    h = History()
    for node, txn, oid, _ in steps:
        h.record_read(node, txn, oid)
        h.mark_committed(txn)
    assert h.conflict_graph().is_serializable()


def all_pairs_graph(history):
    """The reference graph: one edge per conflicting pair of accesses by
    different committed transactions in each ``(node, oid)`` stream."""
    streams = defaultdict(list)
    for event in history.committed_events():
        streams[(event.node_id, event.oid)].append(event)
    edges = defaultdict(set)
    for stream in streams.values():
        for i, earlier in enumerate(stream):
            for later in stream[i + 1:]:
                if later.txn_id != earlier.txn_id and (
                    earlier.is_write or later.is_write
                ):
                    edges[earlier.txn_id].add(later.txn_id)
    return ConflictGraph(nodes=history.committed_ids, edges=dict(edges))


def reachable(graph):
    """Every node's set of descendants."""
    closure = {}
    for start in graph.nodes:
        seen, frontier = set(), [start]
        while frontier:
            for child in graph.edges.get(frontier.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        closure[start] = seen
    return closure


def serial_order_or_none(graph):
    try:
        return graph.serial_order()
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 1), st.integers(1, 6), st.integers(0, 2),
            st.sampled_from(["r", "w", "c"]),
        ),
        max_size=40,
    ),
    st.sets(st.integers(1, 6)),
)
def test_sparse_edges_judge_like_all_pairs(steps, committed):
    """The linear construction keeps a subset of the all-pairs edges with
    the same transitive closure: the same verdict, the same serial order."""
    history = History()
    record = {"r": history.record_read, "w": history.record_write,
              "c": history.record_conflict}
    for node, txn, oid, kind in steps:
        record[kind](node, txn, oid)
    for txn in committed:
        history.mark_committed(txn)
    sparse, full = history.conflict_graph(), all_pairs_graph(history)
    for src, dsts in sparse.edges.items():
        assert dsts <= full.edges[src]
    assert reachable(sparse) == reachable(full)
    assert (sparse.find_cycle() is None) == (full.find_cycle() is None)
    assert serial_order_or_none(sparse) == serial_order_or_none(full)


def test_a_carried_write_stands_only_once_its_carrier_commits():
    history = History()
    history.record_write(0, 1, 5)
    history.record_write(1, 1, 5, via=40)  # refresh attempt, then undone
    history.record_write(1, 2, 5)
    history.record_write(1, 1, 5, via=41)  # the retry, committed
    history.mark_applied(41)
    for txn in (1, 2):
        history.mark_committed(txn)
    assert [event.via for event in history.committed_events()] == [
        None, None, 41,
    ]
    # counted, the undone attempt would order 1 -> 2 -> 1 at node 1
    assert history.conflict_graph().serial_order() == [2, 1]
