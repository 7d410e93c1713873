"""Table 1 — the replication-strategy taxonomy, measured from the systems.

The paper's table says how many transactions and object owners each strategy
needs to propagate one update to N nodes.  This benchmark runs one update
through each implemented strategy at N=3 and counts the actual transactions,
then prints the reproduced table.
"""

from repro.analytic.tables import expected_transaction_count, render_table_1
from repro.core import AlwaysAccept, TwoTierSystem
from repro.metrics.report import format_table
from repro.replication.eager_group import EagerGroupSystem
from repro.replication.eager_master import EagerMasterSystem
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.lazy_master import LazyMasterSystem
from repro.txn.ops import IncrementOp
from repro.replication import SystemSpec

N = 3


def measure_taxonomy():
    rows = []

    for name, cls, ownership in [
        ("lazy-group", LazyGroupSystem, "N"),
        ("eager-group", EagerGroupSystem, "N"),
        ("lazy-master", LazyMasterSystem, "1"),
        ("eager-master", EagerMasterSystem, "1"),
    ]:
        system = cls(SystemSpec(num_nodes=N, db_size=10, action_time=0.001))
        system.submit(0, [IncrementOp(5, 1)])
        system.run()
        txns = system.metrics.commits + system.metrics.replica_updates
        rows.append((name, txns, ownership))

    # two-tier: tentative at the mobile + base txn + replica updates
    system = TwoTierSystem(
        SystemSpec(num_nodes=1 + N - 1, db_size=10, action_time=0.001),
        num_base=1,
    )
    system.disconnect_mobile(1)
    system.mobile(1).submit_tentative([IncrementOp(5, 1)], AlwaysAccept())
    system.run()
    system.reconnect_mobile(1)
    system.run()
    txns = (
        system.metrics.tentative_committed
        + system.metrics.commits
        + system.metrics.replica_updates
    )
    rows.append(("two-tier", txns, "1"))
    return rows


def test_bench_table1(benchmark):
    rows = benchmark.pedantic(measure_taxonomy, rounds=1, iterations=1)
    print()
    print(render_table_1())
    print()
    print(format_table(
        ["strategy", "measured transactions (N=3)", "object owners"],
        rows,
        title="Table 1 reproduced by measurement:",
    ))

    measured = {name: txns for name, txns, _ in rows}
    assert measured["eager-group"] == expected_transaction_count("eager", N)
    assert measured["eager-master"] == expected_transaction_count("eager", N)
    assert measured["lazy-group"] == expected_transaction_count("lazy", N)
    assert measured["lazy-master"] == expected_transaction_count("lazy", N)
    # two-tier: N+1 transactions (tentative + base + N-1 replica refreshes;
    # the paper's "N+1 transactions, one object owner" row)
    assert measured["two-tier"] == expected_transaction_count("two-tier", N)
