"""Tests for the experiment harness."""

import pytest

from repro.analytic import ModelParameters
from repro.exceptions import ConfigurationError
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.campaign import Campaign, run_campaign, scorecard_table
from repro.harness.experiment import STRATEGIES, build_system


def small_params(**kw):
    base = dict(db_size=60, nodes=2, tps=2, actions=2, action_time=0.001)
    base.update(kw)
    return ModelParameters(**base)


class TestConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(strategy="psychic", params=small_params())

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(strategy="lazy-master", params=small_params(),
                             duration=0)

    def test_build_system_every_strategy(self):
        for strategy in STRATEGIES:
            config = ExperimentConfig(strategy=strategy, params=small_params())
            system = build_system(config)
            assert system.db_size == 60

    def test_disconnects_rejected_for_master_strategies(self):
        config = ExperimentConfig(
            strategy="lazy-master",
            params=small_params(disconnect_time=1.0),
            duration=5.0,
        )
        with pytest.raises(ConfigurationError):
            run_experiment(config)


class TestRunExperiment:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_strategy_runs_and_converges(self, strategy):
        result = run_experiment(
            ExperimentConfig(strategy=strategy, params=small_params(),
                             duration=20.0)
        )
        assert result.metrics.commits > 0
        assert result.divergence == 0
        assert result.rates.commit_rate > 0

    def test_rates_divide_by_duration(self):
        result = run_experiment(
            ExperimentConfig(strategy="lazy-master", params=small_params(),
                             duration=25.0)
        )
        assert result.rates.commit_rate == pytest.approx(
            result.metrics.commits / 25.0
        )

    def test_seed_determinism(self):
        def run(seed):
            result = run_experiment(
                ExperimentConfig(strategy="lazy-group", params=small_params(),
                                 duration=20.0, seed=seed)
            )
            return result.metrics.as_dict()

        assert run(3) == run(3)

    def test_warmup_excluded_from_measurement(self):
        base = run_experiment(
            ExperimentConfig(strategy="lazy-master", params=small_params(),
                             duration=20.0, seed=4)
        )
        warmed = run_experiment(
            ExperimentConfig(strategy="lazy-master", params=small_params(),
                             duration=20.0, seed=4, warmup=20.0)
        )
        # warmed run generated ~2x the transactions but reports only the
        # measured window's worth of commits
        assert warmed.metrics.commits == pytest.approx(
            base.metrics.commits, rel=0.35
        )
        assert warmed.rates.commit_rate == pytest.approx(
            base.rates.commit_rate, rel=0.35
        )

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(strategy="lazy-master", params=small_params(),
                             warmup=-1.0)

    def test_two_tier_base_divergence_reported(self):
        result = run_experiment(
            ExperimentConfig(
                strategy="two-tier",
                params=small_params(disconnect_time=2.0),
                duration=20.0,
            )
        )
        assert result.extra["base_divergence"] == 0


class TestComparisons:
    def test_strategy_comparison_table(self):
        campaign = Campaign(strategies=("lazy-master", "eager-group"),
                            base_params=small_params(), duration=10.0)
        outcome = run_campaign(campaign, jobs=0)
        text = scorecard_table(outcome.aggregate())
        lines = text.splitlines()
        assert lines[0] == "Strategy comparison at identical load"
        assert lines[1].split() == [
            "strategy", "|", "commits", "|", "waits/s", "|", "deadlocks/s",
            "|", "reconcile/s", "|", "rejects", "|", "diverged"]
        rows = {line.split()[0]: line.split()[2] for line in lines[3:]}
        for run in outcome.outcomes:
            commits = run.payload["counters"]["commits"]
            assert rows[run.spec.config.strategy] == str(commits)

