"""Equations 2-5 — single-node wait and deadlock rates, analytic vs simulated.

The warm-up of section 3: a single node running the Table-2 workload.  The
benchmark measures the wait rate and deadlock rate of the simulator and
compares them with the closed forms, then checks the model's scaling facts
(quintic in Actions, quadratic in TPS).
"""

import pytest

from repro.analytic import ModelParameters, single_node
from repro.analytic.scaling import fit_exponent, sweep
from repro.harness import ExperimentConfig, run_experiment
from repro.metrics.report import format_table

# dilute enough that PW << 1 (the model's validity region), contended
# enough that waits are measurable in a short run
PARAMS = ModelParameters(db_size=100, nodes=1, tps=10, actions=4,
                         action_time=0.01)
DURATION = 500.0


def simulate():
    result = run_experiment(
        ExperimentConfig(strategy="eager-group", params=PARAMS,
                         duration=DURATION, seed=3)
    )
    return result


def test_bench_eq2_5(benchmark):
    result = benchmark.pedantic(simulate, rounds=1, iterations=1)

    predicted_wait_rate = single_node.node_wait_rate(PARAMS)
    predicted_deadlock_rate = single_node.node_deadlock_rate(PARAMS)
    measured_wait_rate = result.rates.wait_rate
    measured_deadlock_rate = result.rates.deadlock_rate

    print()
    print(format_table(
        ["quantity", "analytic", "simulated", "sim/analytic"],
        [
            ("wait rate (eq 2 x TPS)", predicted_wait_rate,
             measured_wait_rate,
             measured_wait_rate / predicted_wait_rate),
            ("deadlock rate (eq 5)", predicted_deadlock_rate,
             measured_deadlock_rate,
             "-" if predicted_deadlock_rate == 0 else
             measured_deadlock_rate / predicted_deadlock_rate),
        ],
        title=f"Equations 2-5 at {PARAMS.describe()}, {DURATION:.0f}s horizon",
    ))

    # the simulated wait rate tracks the closed form within 2x
    assert measured_wait_rate == pytest.approx(predicted_wait_rate, rel=1.0)
    # deadlocks are rare^2: at these parameters eq 5 predicts 0.0256/s
    # (12.8 per 500 s run); the count must be of that order, not 10x off
    assert result.metrics.deadlocks <= 20

    # analytic scaling facts of equations 2-5
    r = sweep(single_node.node_deadlock_rate, PARAMS, "actions", [2, 4, 8])
    assert fit_exponent(r.xs, r.ys) == pytest.approx(5.0)
    r = sweep(single_node.node_deadlock_rate, PARAMS, "tps", [5, 10, 20])
    assert fit_exponent(r.xs, r.ys) == pytest.approx(2.0)
    r = sweep(single_node.wait_probability, PARAMS, "db_size",
              [100, 1000, 10_000])
    assert fit_exponent(r.xs, r.ys) == pytest.approx(-1.0)
