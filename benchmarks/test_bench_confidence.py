"""Measurement rigor — equation 12 with confidence intervals.

A single seeded run is a point estimate; this benchmark re-measures the
eager deadlock sweep under independent seeds and reports 95% confidence
intervals.  Two checks: the analytic-vs-measured ratio is stable across the
sweep (the dilated model's systematic factor, not noise), and the measured
growth ratio between the sweep's endpoints excludes the quadratic
alternative — i.e. the cubic conclusion survives statistical scrutiny.
"""

import pytest

from benchmarks.conftest import EAGER_REGIME
from repro.analytic import eager
from repro.harness.campaign import Campaign, run_campaign
from repro.harness.stats import estimate
from repro.metrics.report import format_table

NODES = [2, 6]
SEEDS = [0, 1, 2, 3, 4]
DURATION = 150.0


def simulate():
    campaign = Campaign(
        strategies=("eager-group",),
        base_params=EAGER_REGIME,
        axis="nodes",
        values=tuple(NODES),
        seeds=tuple(SEEDS),
        duration=DURATION,
    )
    return {cell.value: cell.rates["deadlock_rate"]
            for cell in run_campaign(campaign, jobs=0).aggregate()}


def test_bench_confidence(benchmark):
    per_node = benchmark.pedantic(simulate, rounds=1, iterations=1)

    rows = []
    for nodes, est in per_node.items():
        predicted = eager.total_deadlock_rate(EAGER_REGIME.with_(nodes=nodes))
        rows.append((nodes, predicted, est.format(), est.std))
    print()
    print(format_table(
        ["nodes", "eq 12 (paper)", "measured deadlocks/s", "std"],
        rows,
        title=f"Equation 12 with 95% CIs over {len(SEEDS)} seeds",
    ))

    low, high = per_node[NODES[0]], per_node[NODES[1]]
    # per-seed growth ratios give the distribution of the measured exponent
    ratios = [h / l for l, h in zip(low.samples, high.samples) if l > 0]
    assert len(ratios) >= 3
    growth = estimate("growth", ratios)
    n_ratio = NODES[1] / NODES[0]
    cubic, quadratic = n_ratio**3, n_ratio**2
    print(f"measured growth {NODES[0]}->{NODES[1]} nodes: {growth.format()} "
          f"(quadratic predicts {quadratic:.0f}x, cubic {cubic:.0f}x)")

    # the quadratic alternative is excluded: even the CI's low end exceeds it
    assert growth.lo > quadratic
    # and the cubic-or-worse conclusion holds at the mean
    assert growth.mean >= cubic * 0.8
    # measurement precision: CIs are informative, not degenerate
    for est in per_node.values():
        assert est.mean > 0
        assert est.ci95_half_width < est.mean  # better than ±100%
