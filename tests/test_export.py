"""Tests for JSON result export."""

import json

from repro.analytic import ModelParameters
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.campaign import Campaign, run_campaign
from repro.harness.export import campaign_to_dict, result_to_dict, write_json


def small_config(**kw):
    kw.setdefault("strategy", "lazy-master")
    kw.setdefault("params", ModelParameters(db_size=50, nodes=2, tps=2,
                                            actions=2, action_time=0.001))
    kw.setdefault("duration", 10.0)
    return ExperimentConfig(**kw)


def test_result_round_trip(tmp_path):
    result = run_experiment(small_config())
    path = write_json(result_to_dict(result), tmp_path / "result.json")
    data = json.loads(path.read_text())
    assert data["config"]["strategy"] == "lazy-master"
    assert data["config"]["params"]["db_size"] == 50
    assert data["rates"]["commit_rate"] > 0
    assert data["counters"]["commits"] > 0
    assert data["divergence"] == 0


def test_export_is_valid_json_text(tmp_path):
    result = run_experiment(small_config())
    path = write_json(result_to_dict(result), tmp_path / "nested" / "out.json")
    text = path.read_text()
    json.loads(text)  # parses
    assert text.endswith("\n")


def test_stats_export(tmp_path):
    config = small_config()
    outcome = run_campaign(Campaign(strategies=(config.strategy,),
                                    base_params=config.params, seeds=(1, 2),
                                    duration=config.duration), jobs=0)
    data = campaign_to_dict(outcome)
    assert [run["config"]["seed"] for run in data["runs"]] == [1, 2]
    (cell,) = data["cells"]
    assert len(cell["rates"]["commit_rate"]["samples"]) == 2
    assert cell["rates"]["commit_rate"]["ci95_half_width"] >= 0
    assert cell["rates"]["commits"]["samples"] == [
        o.payload["counters"]["commits"] for o in outcome.outcomes]
    path = write_json(data, tmp_path / "stats.json")
    assert json.loads(path.read_text())["cells"] == data["cells"]


def test_acceptance_and_rule_names_recorded():
    from repro.core.acceptance import NonNegativeOutputs

    config = small_config(strategy="two-tier",
                          acceptance=NonNegativeOutputs())
    data = result_to_dict(run_experiment(config))
    assert data["config"]["acceptance"] == "non-negative"
