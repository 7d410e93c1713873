"""Tests for the windowed telemetry samplers and the Telemetry handle."""

import json

import pytest

from repro.analytic import ModelParameters
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan
from repro.harness import ExperimentConfig, run_experiment
from repro.obs.samplers import Telemetry, TimeSeries, sparkline
from repro.sim.engine import Engine


# --------------------------------------------------------------------- #
# TimeSeries
# --------------------------------------------------------------------- #


def test_series_summary():
    series = TimeSeries("x")
    for t, v in [(1.0, 2.0), (2.0, 8.0), (3.0, 5.0)]:
        series.append(t, v)
    s = series.summary()
    assert s.count == 3
    assert s.minimum == 2.0
    assert s.maximum == 8.0
    assert s.mean == 5.0
    assert s.last == 5.0


def test_empty_series_summary_is_zero():
    s = TimeSeries("x").summary()
    assert (s.count, s.minimum, s.mean, s.maximum, s.last) == (0, 0, 0, 0, 0)


def test_series_roundtrip():
    series = TimeSeries("x")
    series.append(1.0, 3.0)
    series.append(2.0, 4.0)
    # the run's document carries the series as this dictionary
    doc = series.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["name"] == "x"
    assert doc["times"] == [1.0, 2.0]
    assert doc["values"] == [3.0, 4.0]
    assert doc["summary"]["last"] == 4.0


def test_sparkline_shape():
    line = sparkline([float(i) for i in range(10)], width=10)
    assert len(line) == 10
    assert line[0] == " "  # zero level
    assert line[-1] == "@"  # peak level


def test_sparkline_all_zero_and_empty():
    assert sparkline([]) == ""
    assert sparkline([0.0, 0.0]) == "  "


# --------------------------------------------------------------------- #
# Telemetry registration and sampling
# --------------------------------------------------------------------- #


def test_telemetry_rejects_bad_interval():
    with pytest.raises(ConfigurationError):
        Telemetry(interval=0)
    with pytest.raises(ConfigurationError):
        Telemetry(interval=-1.0)


def test_duplicate_series_name_rejected():
    telemetry = Telemetry()
    telemetry.gauge("depth", lambda: 0)
    with pytest.raises(ConfigurationError):
        telemetry.counter_rate("depth", lambda: 0)


def test_gauge_samples_instantaneous_value():
    telemetry = Telemetry(interval=1.0)
    box = {"v": 5}
    series = telemetry.gauge("depth", lambda: box["v"])
    telemetry.sample(1.0)
    box["v"] = 9
    telemetry.sample(2.0)
    assert series.values == [5.0, 9.0]


def test_counter_rate_is_per_window_delta():
    telemetry = Telemetry(interval=2.0)
    box = {"count": 0}
    series = telemetry.counter_rate("commits", lambda: box["count"])
    box["count"] = 10  # startup activity lands in window one
    telemetry.sample(2.0)
    box["count"] = 16
    telemetry.sample(4.0)
    telemetry.sample(6.0)  # idle window
    assert series.values == [5.0, 3.0, 0.0]


def test_marks_recorded():
    telemetry = Telemetry()
    telemetry.mark(3.0, "partition-start", left=[0], right=[1])
    doc = telemetry.to_dict()
    assert doc["marks"] == [
        {"time": 3.0, "label": "partition-start",
         "detail": {"left": [0], "right": [1]}}
    ]


# --------------------------------------------------------------------- #
# bounded tick scheduling
# --------------------------------------------------------------------- #


def test_schedule_tick_count_and_drain():
    engine = Engine()
    telemetry = Telemetry(interval=1.0)
    series = telemetry.gauge("x", lambda: 1)
    ticks = telemetry.schedule(engine, horizon=5.0)
    assert ticks == 5
    engine.run()  # must drain: ticks are pre-scheduled, not self-rescheduled
    assert engine.queued_events == 0
    assert series.times == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_schedule_partial_final_window():
    engine = Engine()
    telemetry = Telemetry(interval=2.0)
    series = telemetry.gauge("x", lambda: 1)
    telemetry.schedule(engine, horizon=5.0)
    engine.run()
    assert series.times == [2.0, 4.0, 5.0]


def test_schedule_guards():
    engine = Engine()
    telemetry = Telemetry()
    telemetry.schedule(engine, horizon=1.0)
    with pytest.raises(ConfigurationError):
        telemetry.schedule(engine, horizon=1.0)
    with pytest.raises(ConfigurationError):
        Telemetry().schedule(engine, horizon=0.0)


# --------------------------------------------------------------------- #
# end to end: the acceptance scenario
# --------------------------------------------------------------------- #


def test_partition_reconciliation_series_nonzero_after_onset():
    """Lazy-group N=8 under a partition: the reconciliation-rate series is
    visibly nonzero after the partition heals, and the fault timeline marks
    the onset."""
    params = ModelParameters(
        db_size=100, nodes=8, tps=8, actions=4, action_time=0.005
    )
    duration = 40.0
    plan = FaultPlan.from_spec(
        "partition=10", num_nodes=8, duration=duration
    )
    result = run_experiment(
        ExperimentConfig(
            strategy="lazy-group",
            params=params,
            duration=duration,
            seed=3,
            faults=plan,
            sample_interval=1.0,
        )
    )
    payload = result.extra["series"]
    assert json.loads(json.dumps(payload)) == payload  # JSON-serialisable

    marks = payload["marks"]
    onset = next(m["time"] for m in marks if m["label"] == "partition-start")
    assert any(m["label"] == "partition-heal" for m in marks)

    series = payload["series"]["reconciliation_rate"]
    after = [v for t, v in zip(series["times"], series["values"])
             if t > onset]
    assert sum(after) > 0, "no reconciliations observed after partition onset"

    # the per-node WAL gauges exist for every node
    for node in range(8):
        assert f"wal_active_txns/node{node}" in payload["series"]
    # store-and-forward backlog was visible while the partition was open
    assert max(payload["series"]["net_parked"]["values"]) > 0


def test_sampling_disabled_adds_no_series_and_little_overhead():
    """sample_interval=0 leaves no series behind; the instrumented paths
    (engine profiler check, telemetry=None plumbing) stay cheap.  The
    timing assertion is deliberately loose — CI machines are noisy."""
    import time

    params = ModelParameters(
        db_size=60, nodes=3, tps=5, actions=3, action_time=0.002
    )

    def run_once(interval):
        t0 = time.perf_counter()
        result = run_experiment(
            ExperimentConfig(
                strategy="lazy-group", params=params, duration=15.0,
                seed=0, sample_interval=interval,
            )
        )
        return result, time.perf_counter() - t0

    disabled, t_disabled = run_once(0.0)
    enabled, t_enabled = run_once(0.5)
    assert "series" not in disabled.extra
    assert "series" in enabled.extra
    # sampling off must not cost more than sampling on (plus generous noise)
    assert t_disabled <= t_enabled * 2.0 + 0.25


def test_telemetry_identical_results_with_and_without_sampling():
    """Observability must not perturb the simulation: same counters either
    way."""
    params = ModelParameters(
        db_size=60, nodes=4, tps=5, actions=3, action_time=0.002
    )

    def counters(interval):
        result = run_experiment(
            ExperimentConfig(
                strategy="lazy-group", params=params, duration=15.0,
                seed=7, sample_interval=interval,
            )
        )
        return result.metrics.as_dict()

    assert counters(0.0) == counters(1.0)
