"""The strategy scorecard: every strategy at identical load."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analytic.parameters import ModelParameters
from repro.harness.experiment import STRATEGIES, ExperimentResult
from repro.metrics.report import format_table


def strategy_comparison(
    params: ModelParameters,
    strategies: Optional[Sequence[str]] = None,
    duration: float = 100.0,
    seed: int = 0,
    commutative: bool = False,
    jobs: int = 0,
    cache_dir=None,
) -> Dict[str, ExperimentResult]:
    """Run every strategy at identical load — the section 8 summary,
    quantified.  Returns strategy -> result.

    ``strategies`` defaults to the whole registry
    (:data:`~repro.harness.strategies.STRATEGIES`), so newly registered
    strategies join the scorecard automatically.

    Runs through the campaign runner: ``jobs`` worker processes fan the
    strategies out (0 = inline), ``cache_dir`` enables the content-hash
    result cache.  Results are identical either way — each run is a
    deterministic function of its configuration.
    """
    from repro.harness.campaign import Campaign, run_campaign

    campaign = Campaign(
        strategies=tuple(strategies) if strategies is not None else STRATEGIES,
        base_params=params,
        seeds=(seed,),
        duration=duration,
        commutative=commutative,
    )
    outcome = run_campaign(campaign, jobs=jobs, cache_dir=cache_dir)
    results: Dict[str, ExperimentResult] = {}
    for run in outcome.outcomes:
        if not run.ok:
            raise RuntimeError(
                f"strategy comparison run failed: {run.spec.label()}: "
                f"{run.error}"
            )
        results[run.spec.config.strategy] = run.to_result()
    return results


def strategy_table(results: Dict[str, ExperimentResult]) -> str:
    """Render the cross-strategy scorecard."""
    rows: List[List] = []
    for name, result in results.items():
        rows.append(
            [
                name,
                result.metrics.commits,
                result.rates.wait_rate,
                result.rates.deadlock_rate,
                result.rates.reconciliation_rate,
                result.metrics.tentative_rejected,
                result.divergence,
            ]
        )
    return format_table(
        ["strategy", "commits", "waits/s", "deadlocks/s", "reconcile/s",
         "rejects", "diverged"],
        rows,
        title="Strategy comparison at identical load",
    )
