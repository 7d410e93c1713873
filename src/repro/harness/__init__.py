"""Experiment harness: configure, simulate, measure, compare to the model.

:func:`~repro.harness.experiment.run_experiment` is the single entry point
the benchmarks use: a declarative
:class:`~repro.harness.experiment.ExperimentConfig` names a strategy and the
Table-2 parameters; the harness builds the system, drives the model workload
(plus disconnect schedules when configured), runs to quiescence, and returns
measured counters, rates, and convergence state.

:mod:`~repro.harness.campaign` runs strategy x axis x seed grids with a
model column beside the measured one; :mod:`~repro.harness.comparison` is
the cross-strategy scorecard at one load.
"""

from repro.harness.experiment import (
    STRATEGIES,
    STRATEGY_CLASSES,
    ExperimentConfig,
    ExperimentResult,
    build_system,
    run_experiment,
)
from repro.harness.comparison import strategy_comparison
from repro.harness.export import result_to_dict, write_json
from repro.harness.stats import RateEstimate, SeedStats, repeat_experiment
from repro.harness.campaign import (
    Campaign,
    CampaignResult,
    CellStats,
    RunOutcome,
    RunSpec,
    campaign_table,
    run_campaign,
)

__all__ = [
    "STRATEGIES",
    "STRATEGY_CLASSES",
    "ExperimentConfig",
    "ExperimentResult",
    "build_system",
    "run_experiment",
    "strategy_comparison",
    "repeat_experiment",
    "SeedStats",
    "RateEstimate",
    "result_to_dict",
    "write_json",
    "Campaign",
    "CampaignResult",
    "CellStats",
    "RunOutcome",
    "RunSpec",
    "campaign_table",
    "run_campaign",
]
