"""Tests for multi-seed statistics."""

import dataclasses

import pytest

from repro.analytic import ModelParameters
from repro.exceptions import ConfigurationError
from repro.harness.campaign import Campaign, run_campaign
from repro.harness.stats import estimate, t_quantile_95
from repro.metrics.counters import Metrics
from repro.metrics.rates import RateSummary


class TestTQuantile:
    def test_known_values(self):
        assert t_quantile_95(1) == pytest.approx(12.706, rel=1e-3)
        assert t_quantile_95(10) == pytest.approx(2.228, rel=1e-3)

    def test_large_dof_approaches_normal(self):
        assert t_quantile_95(1000) == pytest.approx(1.96, abs=0.01)

    def test_invalid_dof(self):
        with pytest.raises(ConfigurationError):
            t_quantile_95(0)


class TestEstimate:
    def test_mean_and_std(self):
        est = estimate("x", [1.0, 2.0, 3.0])
        assert est.mean == pytest.approx(2.0)
        assert est.std == pytest.approx(1.0)
        assert est.lo < 2.0 < est.hi
        assert est.contains(2.0)
        assert "95% CI" in est.format()

    def test_identical_samples_zero_width(self):
        est = estimate("x", [5.0, 5.0, 5.0, 5.0])
        assert est.ci95_half_width == 0.0
        assert est.contains(5.0)
        assert not est.contains(5.1)

    def test_single_sample_has_zero_width(self):
        est = estimate("x", [4])
        assert (est.mean, est.std, est.ci95_half_width) == (4, 0.0, 0.0)
        assert est.samples == (4,)
        with pytest.raises(ConfigurationError):
            estimate("x", [])

    def test_interval_narrows_with_samples(self):
        wide = estimate("x", [1.0, 3.0])
        narrow = estimate("x", [1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0])
        assert narrow.ci95_half_width < wide.ci95_half_width


class TestRepeatExperiment:
    """Repeating one experiment over seeds: a one-cell campaign."""

    PARAMS = ModelParameters(db_size=60, nodes=2, tps=3, actions=2,
                             action_time=0.002)

    def rates(self, seeds):
        campaign = Campaign(strategies=("lazy-master",),
                            base_params=self.PARAMS, seeds=tuple(seeds),
                            duration=20.0)
        (cell,) = run_campaign(campaign, jobs=0).aggregate()
        assert cell.n == len(seeds)
        return cell.rates

    def test_summarises_all_rates(self):
        rates = self.rates([1, 2, 3])
        every = {field.name for field in dataclasses.fields(RateSummary)}
        counters = Metrics.COUNTER_NAMES | Metrics.KNOWN_EXTRAS
        assert set(rates) == (every - {"horizon"}) | counters | {"divergence"}
        assert rates["commit_rate"].mean > 0
        assert len(rates["commit_rate"].samples) == 3

    def test_mean_commit_rate_tracks_offered_load(self):
        rates = self.rates([1, 2, 3, 4])
        # offered load is 3 tps x 2 nodes = 6/s
        assert rates["commit_rate"].mean == pytest.approx(6.0, rel=0.25)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            self.rates([1, 1])

    def test_deterministic_given_seed_set(self):
        a = self.rates([5, 6])
        b = self.rates([5, 6])
        assert a["commit_rate"].samples == b["commit_rate"].samples
