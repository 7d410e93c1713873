"""Tests for the parallel campaign runner (`repro.harness.campaign`)."""

import dataclasses
import json

import pytest

from repro.analytic import ModelParameters
from repro.exceptions import ConfigurationError
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.campaign import (
    ANALYTIC_REFERENCE,
    Campaign,
    ResultCache,
    RunSpec,
    aggregate,
    campaign_table,
    fit_exponents,
    result_from_dict,
    run_campaign,
)
from repro.harness.export import (
    INSTRUMENTATION,
    campaign_to_dict,
    config_to_dict,
    result_to_dict,
    write_campaign_csv,
    write_json,
)

TINY = ModelParameters(db_size=50, nodes=2, tps=2, actions=2,
                       action_time=0.001)


def tiny_campaign(**kw):
    kw.setdefault("strategies", ("lazy-master",))
    kw.setdefault("base_params", TINY)
    kw.setdefault("values", ())
    kw.setdefault("seeds", (0, 1))
    kw.setdefault("duration", 5.0)
    return Campaign(**kw)


class TestGridExpansion:
    def test_full_grid_order_and_size(self):
        campaign = Campaign(
            strategies=("lazy-master", "eager-group"),
            base_params=TINY,
            values=(1, 2, 4),
            seeds=(0, 1),
            duration=5.0,
        )
        specs = campaign.specs()
        assert len(specs) == campaign.total_runs == 2 * 3 * 2
        # (strategy, value, seed) order, axis applied to params
        assert specs[0].config.strategy == "lazy-master"
        assert [s.config.params.nodes for s in specs[:6]] == [1, 1, 2, 2, 4, 4]
        assert [s.config.seed for s in specs[:4]] == [0, 1, 0, 1]
        # swept node counts stay integers (ModelParameters validates)
        assert all(isinstance(s.config.params.nodes, int) for s in specs)

    def test_empty_values_uses_base_point(self):
        specs = tiny_campaign().specs()
        assert len(specs) == 2
        assert all(s.config.params.nodes == TINY.nodes for s in specs)

    def test_other_axis(self):
        campaign = tiny_campaign(axis="tps", values=(1.0, 2.0), seeds=(0,))
        assert [s.config.params.tps for s in campaign.specs()] == [1.0, 2.0]
        assert [s.axis_value for s in campaign.specs()] == [1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_campaign(strategies=())
        with pytest.raises(ConfigurationError):
            tiny_campaign(strategies=("psychic",))
        with pytest.raises(ConfigurationError):
            tiny_campaign(seeds=(1, 1))
        with pytest.raises(ConfigurationError):
            tiny_campaign(axis="warp_factor")


class TestSpecKeys:
    def test_key_is_deterministic_and_seed_sensitive(self):
        a, b = tiny_campaign().specs()
        assert a.key() == RunSpec(config=a.config).key()
        assert a.key() != b.key()  # differing seed

    def test_key_ignores_tracer(self):
        from repro.sim.tracing import Tracer

        spec = tiny_campaign().specs()[0]
        traced = RunSpec(config=ExperimentConfig(
            strategy=spec.config.strategy, params=spec.config.params,
            duration=spec.config.duration, seed=spec.config.seed,
            tracer=Tracer(),
        ))
        assert spec.key() == traced.key()

    def test_key_varies_with_parameters(self):
        spec = tiny_campaign().specs()[0]
        other = RunSpec(config=ExperimentConfig(
            strategy=spec.config.strategy,
            params=spec.config.params.with_(tps=9.0),
            duration=spec.config.duration, seed=spec.config.seed,
        ))
        assert spec.key() != other.key()

    def test_every_config_field_is_keyed_or_instrumentation(self):
        """One value per field that differs from its default.  A field
        added to ``ExperimentConfig`` fails here until it has a row (and
        so provably moves the key) or is declared instrumentation."""
        from repro.core.acceptance import NonNegativeOutputs
        from repro.faults.plan import FaultPlan
        from repro.placement import Placement
        from repro.replication.reconciliation import MinimumWins

        changed = dict(
            strategy="lazy-group", params=TINY.with_(message_cpu=0.001),
            duration=6.0, seed=1, commutative=True, num_base=2,
            acceptance=NonNegativeOutputs(), rule=MinimumWins(), warmup=1.0,
            record_history=True, retry_deadlocks=True, propagate_ops=True,
            faults=FaultPlan.from_spec("drop=0.1", 2, 5.0), sample_interval=0.5,
            placement=Placement.from_spec("hash:k=1"),
        )
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert fields == set(changed) | set(INSTRUMENTATION)
        base = ExperimentConfig(strategy="lazy-master", params=TINY)
        assert set(config_to_dict(base)) == set(changed)
        for name, value in changed.items():
            other = dataclasses.replace(base, **{name: value})
            assert RunSpec(other).key() != RunSpec(base).key(), name
        for name in INSTRUMENTATION:
            other = dataclasses.replace(base, **{name: object()})
            assert RunSpec(other).key() == RunSpec(base).key(), name

    def test_a_criterion_or_rule_is_keyed_by_its_arguments_too(self):
        from repro.core.acceptance import PriceNotAbove, WithinTolerance
        from repro.replication.reconciliation import SitePriorityWins

        def key(**kw):
            return RunSpec(ExperimentConfig(
                strategy="two-tier", params=TINY, **kw)).key()

        assert key(acceptance=PriceNotAbove(0.0)) != key(acceptance=PriceNotAbove(5.0))
        assert key(acceptance=PriceNotAbove(5.0)) == key(acceptance=PriceNotAbove(5.0))
        assert key(acceptance=WithinTolerance(0.05)) != key(acceptance=WithinTolerance(0.5))
        assert key(rule=SitePriorityWins({0: 1, 1: 2})) != key(
            rule=SitePriorityWins({0: 2, 1: 1}))

    def test_a_callable_in_a_criterion_has_no_key(self):
        from repro.core.acceptance import PredicateCriterion
        from repro.replication.reconciliation import CustomRule, Outcome

        for kw in (
            dict(acceptance=PredicateCriterion(lambda value: value >= 0)),
            dict(rule=CustomRule(lambda local, update: Outcome.APPLY)),
        ):
            config = ExperimentConfig(strategy="two-tier", params=TINY, **kw)
            assert RunSpec(config).key() is None
            config_to_dict(config)  # provenance still renders


class TestExecution:
    def test_inline_matches_direct_run(self):
        outcome = run_campaign(tiny_campaign(), jobs=0)
        assert outcome.ok_count == outcome.total == 2
        direct = run_experiment(outcome.outcomes[0].spec.config)
        assert outcome.outcomes[0].payload == result_to_dict(direct)

    def test_pool_matches_inline(self):
        campaign = tiny_campaign(strategies=("lazy-master", "lazy-group"))
        inline = run_campaign(campaign, jobs=0)
        pooled = run_campaign(campaign, jobs=2)
        assert pooled.jobs == 2
        assert [o.payload for o in pooled.outcomes] == [
            o.payload for o in inline.outcomes
        ]

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_failed_cell_does_not_kill_campaign(self, jobs):
        # disconnect schedules are rejected for lazy-master at run time,
        # so this cell fails inside the worker while the others succeed
        bad = RunSpec(config=ExperimentConfig(
            strategy="lazy-master",
            params=TINY.with_(disconnect_time=5.0),
            duration=5.0,
        ))
        good = tiny_campaign().specs()
        outcome = run_campaign([good[0], bad, good[1]], jobs=jobs)
        assert [o.status for o in outcome.outcomes] == ["ok", "failed", "ok"]
        assert "ConfigurationError" in outcome.outcomes[1].error
        assert outcome.ok_count == 2
        assert len(outcome.failures) == 1
        assert len(outcome.results()) == 2

    def test_timeout_marks_cell_and_continues(self):
        heavy = RunSpec(config=ExperimentConfig(
            strategy="eager-group",
            params=ModelParameters(db_size=2000, nodes=6, tps=20,
                                   actions=5, action_time=0.01),
            duration=500.0,
        ))
        quick = tiny_campaign().specs()[0]
        outcome = run_campaign([heavy, quick], jobs=2, timeout=0.2)
        by_strategy = {o.spec.config.strategy: o for o in outcome.outcomes}
        assert by_strategy["eager-group"].status == "timeout"
        assert "wall-clock" in by_strategy["eager-group"].error
        assert by_strategy["lazy-master"].ok

    def test_progress_callback_sees_every_run(self):
        seen = []
        run_campaign(tiny_campaign(), jobs=0,
                     progress=lambda o, done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(tiny_campaign(), jobs=-1)


class TestCache:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        campaign = tiny_campaign()
        first = run_campaign(campaign, jobs=0, cache_dir=tmp_path)
        assert first.cache_hits == 0 and first.cache_misses == 2
        second = run_campaign(campaign, jobs=0, cache_dir=tmp_path)
        assert second.cache_hits == 2
        assert all(o.cached for o in second.outcomes)
        assert [o.payload for o in second.outcomes] == [
            o.payload for o in first.outcomes
        ]

    def test_changed_spec_misses(self, tmp_path):
        run_campaign(tiny_campaign(), jobs=0, cache_dir=tmp_path)
        changed = tiny_campaign(duration=6.0)
        rerun = run_campaign(changed, jobs=0, cache_dir=tmp_path)
        assert rerun.cache_hits == 0

    def test_criteria_differing_in_arguments_miss_each_other(self, tmp_path):
        """``PriceNotAbove(0.0)`` and ``PriceNotAbove(5.0)`` shared one
        key — the second spec was served the first's cached result."""
        from repro.core.acceptance import PriceNotAbove

        def spec(tolerance):
            return RunSpec(ExperimentConfig(
                strategy="two-tier", params=TINY, duration=5.0,
                acceptance=PriceNotAbove(tolerance)))

        first = run_campaign([spec(0.0)], jobs=0, cache_dir=tmp_path)
        assert first.ok_count == 1
        other = run_campaign([spec(5.0)], jobs=0, cache_dir=tmp_path)
        assert other.cache_hits == 0
        again = run_campaign([spec(0.0), spec(5.0)], jobs=0, cache_dir=tmp_path)
        assert again.cache_hits == 2

    def test_a_config_carrying_a_callable_is_never_cached(self, tmp_path):
        from repro.core.acceptance import PredicateCriterion

        spec = RunSpec(ExperimentConfig(
            strategy="two-tier", params=TINY, duration=5.0,
            acceptance=PredicateCriterion(lambda value: True, name="any")))
        for _ in range(2):
            outcome = run_campaign([spec], jobs=0, cache_dir=tmp_path)
            assert outcome.ok_count == 1 and outcome.cache_hits == 0
        assert not list(tmp_path.iterdir())

    def test_failures_are_not_cached(self, tmp_path):
        bad = RunSpec(config=ExperimentConfig(
            strategy="lazy-master",
            params=TINY.with_(disconnect_time=5.0),
            duration=5.0,
        ))
        run_campaign([bad], jobs=0, cache_dir=tmp_path)
        rerun = run_campaign([bad], jobs=0, cache_dir=tmp_path)
        assert rerun.cache_hits == 0
        assert rerun.outcomes[0].status == "failed"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        campaign = tiny_campaign()
        run_campaign(campaign, jobs=0, cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        for spec in campaign.specs():
            cache.path(spec).write_text("{not json")
        rerun = run_campaign(campaign, jobs=0, cache_dir=tmp_path)
        assert rerun.cache_hits == 0
        assert rerun.ok_count == 2


class TestAggregation:
    def test_mean_and_ci_across_seeds(self):
        campaign = tiny_campaign(seeds=(0, 1, 2))
        outcome = run_campaign(campaign, jobs=0)
        (cell,) = outcome.aggregate()
        assert cell.n == 3 and cell.failures == 0
        commit = cell.rates["commit_rate"]
        assert commit.mean == pytest.approx(
            sum(commit.samples) / 3
        )
        assert commit.ci95_half_width >= 0
        # lazy-master's modelled rate is its deadlock rate (eq 19)
        assert cell.reference_rate == "deadlock_rate"
        assert cell.analytic == pytest.approx(
            ANALYTIC_REFERENCE["lazy-master"][1](cell.params)
        )

    def test_single_seed_has_zero_width(self):
        outcome = run_campaign(tiny_campaign(seeds=(0,)), jobs=0)
        (cell,) = outcome.aggregate()
        assert cell.rates["commit_rate"].ci95_half_width == 0.0
        assert cell.rates["commit_rate"].std == 0.0

    def test_failed_runs_counted_per_cell(self):
        bad = RunSpec(config=ExperimentConfig(
            strategy="lazy-master",
            params=TINY.with_(disconnect_time=5.0),
            duration=5.0,
        ))
        cells = aggregate(run_campaign([bad], jobs=0).outcomes)
        assert cells[0].n == 0 and cells[0].failures == 1
        assert cells[0].measured is None

    def test_fit_exponents_measured_and_analytic(self):
        campaign = Campaign(
            strategies=("eager-group",),
            base_params=ModelParameters(db_size=100, nodes=1, tps=3,
                                        actions=3, action_time=0.005),
            values=(2, 4, 8),
            seeds=(0, 1),
            duration=20.0,
        )
        outcome = run_campaign(campaign, jobs=0)
        (fit,) = fit_exponents(outcome.aggregate())
        assert fit.strategy == "eager-group"
        assert fit.rate == "deadlock_rate"
        # eq 12 is cubic in nodes; the measurement should grow steeply too
        assert fit.analytic == pytest.approx(3.0, abs=0.3)
        assert fit.measured is None or fit.measured > 1.0
        assert "eager-group" in fit.describe()

    def test_campaign_table_renders(self):
        outcome = run_campaign(tiny_campaign(), jobs=0)
        table = campaign_table(outcome.aggregate(), title="scorecard")
        assert "scorecard" in table
        assert "lazy-master" in table
        assert "sim/model" in table


class TestRoundTrips:
    def test_result_from_dict_round_trip(self):
        result = run_experiment(tiny_campaign().specs()[0].config)
        rebuilt = result_from_dict(result.config, result_to_dict(result))
        assert rebuilt.metrics.as_dict() == result.metrics.as_dict()
        assert rebuilt.rates == result.rates
        assert rebuilt.divergence == result.divergence
        assert rebuilt.end_time == result.end_time
        assert rebuilt.system is None

    def test_campaign_json_export(self, tmp_path):
        outcome = run_campaign(tiny_campaign(), jobs=0)
        path = write_json(campaign_to_dict(outcome), tmp_path / "c.json")
        data = json.loads(path.read_text())
        assert data["summary"]["runs"] == 2
        assert data["summary"]["ok"] == 2
        assert len(data["runs"]) == 2
        assert data["runs"][0]["config"]["strategy"] == "lazy-master"
        assert data["cells"][0]["rates"]["commit_rate"]["mean"] > 0

    def test_campaign_csv_export(self, tmp_path):
        outcome = run_campaign(tiny_campaign(), jobs=0)
        path = write_campaign_csv(outcome, tmp_path / "c.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("strategy,axis,value,rate")
        assert any(line.startswith("lazy-master,nodes,2,commit_rate")
                   for line in lines[1:])


class TestUnifiedExperimentApi:
    def test_tracer_threads_through_run_experiment(self):
        from repro.sim.tracing import Tracer

        tracer = Tracer(categories={"commit"})
        result = run_experiment(ExperimentConfig(
            strategy="eager-group", params=TINY, duration=5.0,
            tracer=tracer,
        ))
        assert tracer.count("commit") == result.metrics.commits > 0
        assert result.system is not None
        assert result.system.tracer is tracer

    def test_record_history_threads_through_run_experiment(self):
        result = run_experiment(ExperimentConfig(
            strategy="eager-master", params=TINY, duration=5.0,
            record_history=True, retry_deadlocks=True, commutative=True,
        ))
        history = result.system.history
        assert history is not None
        assert len(history.committed_ids) == result.metrics.commits
        assert history.conflict_graph().is_serializable()

    def test_retry_override_defaults_to_strategy_choice(self):
        from repro.harness import build_system

        default = build_system(ExperimentConfig(
            strategy="two-tier", params=TINY, duration=5.0))
        assert default.retry_deadlocks  # two-tier bases retry by default
        overridden = build_system(ExperimentConfig(
            strategy="two-tier", params=TINY, duration=5.0,
            retry_deadlocks=False))
        assert not overridden.retry_deadlocks

    def test_strategy_registry_covers_all_strategies(self):
        from repro.harness import STRATEGIES, STRATEGY_CLASSES, build_system

        assert set(STRATEGY_CLASSES) == set(STRATEGIES)
        for strategy in STRATEGIES:
            system = build_system(ExperimentConfig(
                strategy=strategy, params=TINY, duration=1.0))
            assert isinstance(system, STRATEGY_CLASSES[strategy])

    def test_config_provenance_includes_new_fields(self):
        config = ExperimentConfig(strategy="lazy-group", params=TINY,
                                  duration=5.0, record_history=True,
                                  propagate_ops=False)
        data = config_to_dict(config)
        assert data["record_history"] is True
        assert data["propagate_ops"] is False
        assert data["retry_deadlocks"] is None
