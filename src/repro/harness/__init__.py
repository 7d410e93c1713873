"""Experiment harness: configure, simulate, measure, compare to the model.

:func:`~repro.harness.experiment.run_experiment` is the single entry point
the benchmarks use: a declarative
:class:`~repro.harness.experiment.ExperimentConfig` names a strategy and the
Table-2 parameters; the harness builds the system, drives the model workload
(plus disconnect schedules when configured), runs to quiescence, and returns
measured counters, rates, and convergence state.

:mod:`~repro.harness.campaign` runs strategy x axis x seed grids with a
model column beside the measured one, and is the one way to summarise seed
replicas (a one-cell campaign over the seeds) and to compare strategies
(a one-point campaign over them, rendered by ``scorecard_table``).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "STRATEGIES": "repro.harness.strategies",
    "STRATEGY_CLASSES": "repro.harness.experiment",
    "ExperimentConfig": "repro.harness.experiment",
    "ExperimentResult": "repro.harness.experiment",
    "build_system": "repro.harness.experiment",
    "run_experiment": "repro.harness.experiment",
    "RateEstimate": "repro.harness.stats",
    "result_to_dict": "repro.harness.export",
    "write_json": "repro.harness.export",
    "Campaign": "repro.harness.campaign",
    "CampaignResult": "repro.harness.campaign",
    "CellStats": "repro.harness.campaign",
    "RunOutcome": "repro.harness.campaign",
    "RunSpec": "repro.harness.campaign",
    "campaign_table": "repro.harness.campaign",
    "run_campaign": "repro.harness.campaign",
})
