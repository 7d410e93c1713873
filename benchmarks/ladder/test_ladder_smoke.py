"""Smoke test for the ladder (not in tier-1 ``testpaths``; about a minute).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ladder -q``.
"""

from __future__ import annotations

import json
import os
import random
import re

import pytest

from benchmarks.ladder import cli, des, manifest, svc

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ROOT_JSON = os.path.join(cli.ROOT, "BENCHMARK.json")


def test_manifest_meets_the_contract():
    document = manifest.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in document[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in document["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in document["end_to_end"])
    setup = [e for e in document["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]
    assert isinstance(document["run_seconds"], int)
    assert len(json.dumps(document)) < 64 * 1024
    if os.path.exists(ROOT_JSON):
        with open(ROOT_JSON, encoding="utf-8") as handle:
            assert json.load(handle) == document


def test_des_counts_repeat_exactly():
    workload = des.WORKLOADS["des_eager_hot"]
    first = des.run_cell(workload, seed=3, sim_seconds=5.0)
    second = des.run_cell(workload, seed=3, sim_seconds=5.0)
    assert first.ok and second.ok
    assert first.counters == second.counters
    assert set(first.counters) == set(des.COUNTERS)
    assert first.counters["events"] > 0 and first.counters["commits"] > 0


def test_full_set_smoke_reports_every_metric_once_and_writes_nothing():
    def stamp(path):
        return os.stat(path).st_mtime_ns if os.path.exists(path) else None

    before = stamp(ROOT_JSON), stamp(cli.BASELINE)
    results = cli.full_set(
        manifest.DEFAULT_SEED, manifest.RUN_SECONDS, trace=True, smoke=True
    )
    assert (stamp(ROOT_JSON), stamp(cli.BASELINE)) == before
    assert list(results) == manifest.workload_names()
    for name, runs in results.items():
        # a dict cannot hold a name twice; equal key lists mean exactly once
        assert list(runs["end_to_end"]["metrics"]) == list(manifest.END_TO_END)
        assert list(runs["per_layer"]["metrics"]) == list(manifest.PER_LAYER)
        for run in runs.values():
            assert run["correct"] and run["failed"] == 0, name  # oracle green
            assert run["attempted"] >= 1
            for metric, entry in run["metrics"].items():
                assert NAME.match(metric)
                assert isinstance(entry["value"], float), (name, metric)
        for metric, entry in runs["end_to_end"]["metrics"].items():
            assert entry["value"] > 0, (name, metric)
    layer = {
        name: {m: e["value"] for m, e in runs["per_layer"]["metrics"].items()}
        for name, runs in results.items()
    }
    # the workloads separate the layers
    assert layer["des_eager_hot"]["placement.self_us_per_txn"] < 0.1 * (
        layer["des_certify_sharded"]["placement.self_us_per_txn"]
    )
    assert layer["svc_uniform"]["core.acceptance.rejected_share"] == 0
    # (its ~0.26 steady state needs the full-length warm-up)
    assert layer["svc_checkbook_hot"]["core.acceptance.rejected_share"] > 0
    assert layer["des_eager_hot"]["service.protocol.decode_us_per_txn"] == 0


def test_corrupted_accepted_delta_fails_the_run(tmp_path):
    name = "svc_checkbook_hot"
    marks = []

    async def plan(generator, server):
        # seed 4: six arrivals, none in the last two of the five windows
        await generator.open_loop(
            "sparse", 200.0, 0.02, random.Random(4),
            on_window=lambda: marks.append(server.cpu_seconds()), windows=5,
        )
        await generator.open_loop("open", svc.OPEN_RATE, 0.5, random.Random(5))

    served = svc.with_server(name, 5, str(tmp_path), plan)
    assert len(marks) == 5 + 1
    generator, workload = served.generator, svc.WORKLOADS[name]
    attempted, failed, reasons = svc.judge(
        served.drained, workload, generator.accepted_delta, generator.phases
    )
    assert attempted > 0 and failed == 0, reasons
    attempted, failed, reasons = svc.judge(
        served.drained, workload, generator.accepted_delta + 1,
        generator.phases,
    )
    assert failed / attempted > 0 and "store_sum" in reasons[0]


def test_a_run_too_short_for_its_windows_is_refused():
    with pytest.raises(SystemExit) as refused:
        cli.main(["--workload", "svc_uniform", "--seconds", "0.02"])
    assert refused.value.code == 2
