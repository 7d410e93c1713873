"""Tests for the service-mode CLI surface: ``serve``, ``loadtest``, and
``report`` over a saved loadtest result."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.report import service_report_markdown

SAMPLE_RESULT = {
    "schema": 1,
    "kind": "service-loadtest",
    "config": {"clients": 4, "rate": 100.0, "duration": 1.0,
               "workload": "uniform", "db_size": 50},
    "sent": 100,
    "completed": 100,
    "accepted": 90,
    "rejected": 10,
    "errors": 0,
    "lost": 0,
    "elapsed_seconds": 1.02,
    "throughput_committed_per_sec": 88.2,
    "completed_per_sec": 98.0,
    "rejection_rate": 0.1,
    "latency_ms": {"p50": 1.2, "p90": 2.0, "p95": 2.5, "p99": 4.0,
                   "mean": 1.4, "max": 5.0, "count": 100},
    "oracle": {"ok": True, "store_sum": 123, "expected_store_sum": 123.0,
               "accepted_delta_sum": 123.0, "base_divergence": 0,
               "wal_quiescent": True, "lost_replies": 0},
}


def test_parser_knows_the_service_verbs():
    parser = build_parser()
    args = parser.parse_args(["serve", "--socket", "/tmp/x.sock",
                              "--mobiles", "8"])
    assert args.mobiles == 8 and args.socket == "/tmp/x.sock"
    args = parser.parse_args(["loadtest", "--port", "9999",
                              "--clients", "50", "--zipf", "0.9"])
    assert args.clients == 50 and args.zipf == 0.9


def test_loadtest_requires_an_endpoint():
    with pytest.raises(SystemExit, match="endpoint"):
        main(["loadtest", "--clients", "2"])


def test_report_renders_a_loadtest_result(tmp_path, capsys):
    source = tmp_path / "result.json"
    source.write_text(json.dumps(SAMPLE_RESULT), encoding="utf-8")
    assert main(["report", str(source)]) == 0
    out = capsys.readouterr().out
    assert "Service loadtest report" in out
    assert "committed/sec" in out
    assert "88.2" in out
    assert "p99" in out
    assert "Oracle: ok" in out


def test_report_writes_the_markdown_file(tmp_path):
    source = tmp_path / "result.json"
    source.write_text(json.dumps(SAMPLE_RESULT), encoding="utf-8")
    target = tmp_path / "out" / "service.md"
    assert main(["report", str(source), "--out", str(target)]) == 0
    text = target.read_text(encoding="utf-8")
    assert "# Service loadtest report" in text
    assert "rejection rate" in text


def test_report_rejects_missing_or_foreign_json(tmp_path):
    with pytest.raises(SystemExit, match="cannot read"):
        main(["report", str(tmp_path / "nope.json")])
    foreign = tmp_path / "foreign.json"
    campaign = {"summary": {}, "runs": [{"config": {}, "rates": {}}],
                "cells": []}
    for payload in ({"kind": "campaign"}, {}, campaign,
                    {"benchmark": "kernel-hotpath"}, []):
        foreign.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SystemExit,
                           match="not a run or service loadtest result"):
            main(["report", str(foreign)])


def test_markdown_marks_undrained_runs(tmp_path):
    payload = {k: v for k, v in SAMPLE_RESULT.items() if k != "oracle"}
    text = service_report_markdown(payload)
    assert "Oracle: n/a" in text


def test_markdown_shows_oracle_failures():
    payload = dict(SAMPLE_RESULT)
    payload["oracle"] = dict(payload["oracle"], ok=False, base_divergence=3)
    text = service_report_markdown(payload)
    assert "Oracle: FAIL" in text


def test_markdown_prints_the_transport_ratios_when_the_server_reports_io():
    text = service_report_markdown(SAMPLE_RESULT)
    assert "frames per read" not in text  # an older server: no ``io`` key
    payload = dict(SAMPLE_RESULT,
                   server={"served": 100, "io": {"reads": 40, "writes": 25}})
    text = service_report_markdown(payload)
    assert "frames per read" in text and "2.50" in text
    assert "replies per write" in text and "4.00" in text
