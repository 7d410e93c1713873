"""Tests for JSON result export."""

import json

import pytest

from repro.analytic import ModelParameters
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.export import (
    result_to_dict,
    stats_to_dict,
    to_dict,
    write_json,
)
from repro.harness.stats import repeat_experiment


def small_config(**kw):
    kw.setdefault("strategy", "lazy-master")
    kw.setdefault("params", ModelParameters(db_size=50, nodes=2, tps=2,
                                            actions=2, action_time=0.001))
    kw.setdefault("duration", 10.0)
    return ExperimentConfig(**kw)


def test_result_round_trip(tmp_path):
    result = run_experiment(small_config())
    path = write_json(result, tmp_path / "result.json")
    data = json.loads(path.read_text())
    assert data["config"]["strategy"] == "lazy-master"
    assert data["config"]["params"]["db_size"] == 50
    assert data["rates"]["commit_rate"] > 0
    assert data["counters"]["commits"] > 0
    assert data["divergence"] == 0


def test_export_is_valid_json_text(tmp_path):
    result = run_experiment(small_config())
    path = write_json(result, tmp_path / "nested" / "out.json")
    text = path.read_text()
    json.loads(text)  # parses
    assert text.endswith("\n")


def test_stats_export(tmp_path):
    stats = repeat_experiment(small_config(), seeds=[1, 2])
    data = stats_to_dict(stats)
    assert data["seeds"] == [1, 2]
    assert len(data["rates"]["commit_rate"]["samples"]) == 2
    write_json(stats, tmp_path / "stats.json")


def test_to_dict_dispatch():
    result = run_experiment(small_config())
    assert to_dict(result)["divergence"] == 0
    assert to_dict({"x": 1}) == {"x": 1}
    with pytest.raises(TypeError):
        to_dict(42)


def test_acceptance_and_rule_names_recorded():
    from repro.core.acceptance import NonNegativeOutputs

    config = small_config(strategy="two-tier",
                          acceptance=NonNegativeOutputs())
    data = result_to_dict(run_experiment(config))
    assert data["config"]["acceptance"] == "non-negative"
