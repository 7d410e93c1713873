"""Run reports: one renderer over one document, live or saved."""

import json

import pytest

from repro.analytic import ModelParameters
from repro.faults import FaultPlan
from repro.harness import STRATEGY_CLASSES, ExperimentConfig, run_experiment
from repro.harness.campaign import RunSpec, run_campaign
from repro.harness.export import result_to_dict
from repro.obs.report import run_report_markdown


def _run(sample_interval=1.0, faults=True, seed=1):
    params = ModelParameters(
        db_size=80, nodes=4, tps=6, actions=3, action_time=0.005
    )
    duration = 20.0
    plan = (FaultPlan.from_spec("partition=5", num_nodes=4,
                                duration=duration)
            if faults else None)
    return run_experiment(
        ExperimentConfig(
            strategy="lazy-group",
            params=params,
            duration=duration,
            seed=seed,
            faults=plan,
            sample_interval=sample_interval,
        )
    )


def _saved(result):
    """The document as ``simulate --json`` leaves it on disk."""
    return json.loads(json.dumps(result_to_dict(result), sort_keys=True))


def test_report_markdown_sections():
    text = run_report_markdown(result_to_dict(_run()))
    assert text.startswith("# lazy-group run — nodes=4, seed=1")
    for heading in ("## Run", "## Oracle", "## Rates", "## Counters",
                    "## Injected faults", "## Fault timeline",
                    "## Time series (1s windows)"):
        assert heading in text, f"missing section {heading}"
    assert "partition-start" in text
    assert "reconciliation_rate" in text
    assert "divergence = 0" in text
    assert "materialized records:" in text
    # sparklines rendered between pipes
    assert text.count("|") > 10


def test_report_without_sampling_or_faults():
    text = run_report_markdown(result_to_dict(_run(sample_interval=0.0,
                                                   faults=False)))
    assert "## Time series" not in text
    assert "## Fault timeline" not in text
    assert "## Injected faults" not in text
    assert "## Oracle: ok" in text


def test_report_dict_is_json_serialisable():
    doc = _saved(_run())
    assert doc["extra"]["oracle_ok"] is True
    assert doc["divergence"] == 0
    series = doc["extra"]["series"]
    assert "reconciliation_rate" in series["series"]
    assert series["series"]["commit_rate"]["summary"]["count"] > 0
    assert any(m["label"] == "partition-heal" for m in series["marks"])


def test_report_from_serialised_payload():
    """A campaign worker's payload renders like the live run: the series
    travel inside extra["series"]."""
    result = _run()
    (run,) = run_campaign([RunSpec(result.config)], jobs=1).outcomes
    text = run_report_markdown(run.payload)
    assert "## Time series (1s windows)" in text
    assert text == run_report_markdown(result_to_dict(result))


def test_trace_dropped_warning_in_report(capsys):
    from repro.sim.tracing import Tracer

    params = ModelParameters(
        db_size=60, nodes=3, tps=8, actions=4, action_time=0.002
    )
    tracer = Tracer(limit=50)  # tiny ring buffer, guaranteed overflow
    result = run_experiment(
        ExperimentConfig(strategy="lazy-group", params=params,
                         duration=15.0, seed=0, tracer=tracer)
    )
    assert result.extra["trace_dropped"] == tracer.dropped > 0
    # the library says nothing; the report carries the warning
    assert capsys.readouterr().err == ""
    text = run_report_markdown(result_to_dict(result))
    assert "ring buffer dropped" in text
    assert "--trace-out" in text


_TINY = ModelParameters(db_size=40, nodes=3, tps=4, actions=2,
                        action_time=0.002)


@pytest.mark.parametrize("faults", [None, "partition=3"])
@pytest.mark.parametrize("sample_interval", [0.0, 0.5])
@pytest.mark.parametrize("strategy", sorted(STRATEGY_CLASSES))
def test_live_and_saved_documents_render_identically(strategy,
                                                     sample_interval,
                                                     faults):
    duration = 6.0
    plan = None
    if faults:
        num_nodes = _TINY.nodes + (1 if strategy == "two-tier" else 0)
        plan = FaultPlan.from_spec(faults, num_nodes=num_nodes,
                                   duration=duration)
    result = run_experiment(ExperimentConfig(
        strategy=strategy, params=_TINY, duration=duration, seed=2,
        faults=plan, sample_interval=sample_interval,
    ))
    live = run_report_markdown(result_to_dict(result))
    assert live == run_report_markdown(_saved(result))
    assert ("## Time series" in live) == bool(sample_interval)
    assert ("## Injected faults" in live) == bool(faults)
    assert ("## Fault timeline" in live) == bool(faults and sample_interval)
