"""Ablation — footnote 2: sequential versus parallel eager replica updates.

"An alternate model has eager actions broadcast the update to all replicas
in one instant. ... This model avoids the polynomial explosion of waits and
deadlocks if the total TPS rate is held constant."

Measured: the same eager workload with sequential (the paper's main model)
versus parallel replica application.  Sequential deadlocks grow ~cubically;
parallel deadlocks follow the quadratic lazy-master law, and transaction
durations stay flat in N.
"""

import pytest

from benchmarks.claims import EAGER_REGIME, NODE_SWEEP
from repro.analytic import eager
from repro.analytic.scaling import fit_exponent, sweep
from repro.metrics.report import format_table
from repro.replication.eager_group import EagerGroupSystem
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import uniform_update_profile
from repro.replication import SystemSpec

DURATION = 200.0


def run_mode(parallel: bool):
    rates = []
    for nodes in NODE_SWEEP:
        system = EagerGroupSystem(
            SystemSpec(num_nodes=nodes, db_size=EAGER_REGIME.db_size,
                       action_time=EAGER_REGIME.action_time, seed=1),
            parallel_updates=parallel,
        )
        workload = WorkloadGenerator(
            system,
            uniform_update_profile(actions=EAGER_REGIME.actions,
                                   db_size=EAGER_REGIME.db_size),
            tps=EAGER_REGIME.tps,
        )
        workload.start(DURATION)
        system.run()
        assert system.converged()
        rates.append(system.metrics.deadlocks / DURATION)
    return rates


def simulate():
    return run_mode(False), run_mode(True)


def test_bench_parallel_eager(benchmark):
    sequential, parallel = benchmark.pedantic(simulate, rounds=1,
                                              iterations=1)

    # analytic: the footnote's model is exactly quadratic
    r = sweep(eager.parallel_update_deadlock_rate,
              EAGER_REGIME, "nodes", [1, 2, 4, 8])
    assert fit_exponent(r.xs, r.ys) == pytest.approx(2.0)

    print()
    print(format_table(
        ["nodes", "sequential deadlocks/s", "parallel deadlocks/s"],
        list(zip(NODE_SWEEP, sequential, parallel)),
        title="Footnote 2 ablation: sequential vs parallel replica updates",
    ))
    seq_growth = sequential[-1] / sequential[0]
    par_growth = parallel[-1] / max(parallel[0], 1e-9)
    print(f"growth {NODE_SWEEP[0]}->{NODE_SWEEP[-1]} nodes: "
          f"sequential {seq_growth:.0f}x, parallel {par_growth:.0f}x")

    # at every scale, parallel application deadlocks strictly less
    for n, s, p in zip(NODE_SWEEP, sequential, parallel):
        assert p <= s, f"parallel should not exceed sequential at N={n}"
    # and the explosion is tamed: growth at least 2x flatter
    assert par_growth < seq_growth / 2
