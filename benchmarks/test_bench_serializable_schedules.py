"""Schedule verification — the paper's correctness claims, judged.

"Eager replication gives serializable execution — there are no concurrency
anomalies" (section 1), while update-anywhere lazy replication admits
non-serializable behaviour that surfaces as reconciliation.

Every registered strategy runs the same contended read-modify-write
workload with history recording on, and the one judge
(``faults.oracle.evaluate``) holds each to the guarantee its class
declares: a ``"serializable"`` strategy's schedule must have no precedence
cycle; lazy-group declares only ``"convergent"``, and its racing updates
leave a cycle while every replica still agrees — section 6's "convergence
is not serializability".
"""

from repro.analytic import ModelParameters
from repro.faults.oracle import evaluate
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.experiment import STRATEGIES
from repro.metrics.report import format_table

PARAMS = ModelParameters(
    db_size=10, nodes=3, tps=3, actions=2, action_time=0.002,
)
DURATION = 40.0


def run_strategy(strategy):
    params = PARAMS
    if strategy == "lazy-group":
        # slow links, so concurrent updates of one object actually race
        params = params.with_(message_delay=0.5)
    system = run_experiment(ExperimentConfig(
        strategy=strategy, params=params, duration=DURATION, seed=4,
        commutative=True, record_history=True, retry_deadlocks=True,
        propagate_ops=False,
    )).system
    verdict = evaluate(system)
    return {
        "guarantee": system.guarantee,
        "committed": len(system.history.committed_ids),
        "serializable": verdict.witness is None,
        "diverged": verdict.diverged,
        "verdict": verdict,
    }


def simulate():
    return {strategy: run_strategy(strategy) for strategy in STRATEGIES}


def test_bench_serializable_schedules(benchmark):
    results = benchmark.pedantic(simulate, rounds=1, iterations=1)
    print()
    print(format_table(
        ["strategy", "declares", "committed txns", "one-copy serializable?",
         "diverged", "verdict"],
        [
            (name, r["guarantee"], r["committed"], r["serializable"],
             r["diverged"], "ok" if r["verdict"].ok else "FAIL")
            for name, r in results.items()
        ],
        title="Schedule verification on identical contended workloads",
    ))

    for name, r in results.items():
        # every strategy keeps the guarantee it declares ...
        assert r["verdict"].ok, (name, r["verdict"].describe())
        assert r["committed"] > 0, name
        # ... and a declared-serializable one certifies clean
        if r["guarantee"] == "serializable":
            assert r["serializable"], name
    # update-anywhere lazy replication produced a real anomaly ...
    assert results["lazy-group"]["guarantee"] == "convergent"
    assert not results["lazy-group"]["serializable"]
    # ... while still *converging* — convergence is not serializability,
    # which is precisely the section-6 distinction
    assert results["lazy-group"]["diverged"] == 0
