"""CLI smoke tests for the observability surface: ``simulate``'s report,
trace export and profile, ``report PATH``, and ``sweep --series-out``."""

import json

import pytest

from repro.cli import main

_SMALL = [
    "--nodes", "3", "--db-size", "60", "--tps", "4",
    "--actions", "3", "--action-time", "0.002", "--duration", "10",
]


def test_report_command_stdout(tmp_path, capsys):
    saved = tmp_path / "run.json"
    assert main([
        "simulate", "--strategy", "lazy-group", *_SMALL,
        "--sample-interval", "0.2", "--json", str(saved),
    ]) == 0
    simulated = capsys.readouterr().out
    assert main(["report", str(saved)]) == 0
    out = capsys.readouterr().out
    assert "## Rates" in out
    assert "## Time series (0.2s windows)" in out
    assert "commit_rate" in out
    # the saved document renders the report the run printed
    assert simulated.startswith(out)
    assert simulated[len(out):] == f"result written to {saved}\n"


def test_report_command_files(tmp_path, capsys):
    md = tmp_path / "report.md"
    js = tmp_path / "run.json"
    assert main([
        "simulate", "--strategy", "two-tier", *_SMALL,
        "--sample-interval", "0.5", "--json", str(js),
    ]) == 0
    assert main(["report", str(js), "--out", str(md)]) == 0
    assert f"report written to {md}" in capsys.readouterr().out
    assert "tentative_queue" in md.read_text()
    doc = json.load(js.open())
    assert doc["config"]["sample_interval"] == 0.5
    assert doc["extra"]["series"]["interval"] == 0.5


def test_simulate_profile(capsys):
    assert main([
        "simulate", "--strategy", "lazy-group", *_SMALL, "--profile",
    ]) == 0
    out = capsys.readouterr().out
    assert "engine hot spots" in out
    assert "lazy-group-txn" in out


def test_trace_command_writes_perfetto_json(tmp_path, capsys):
    # `simulate --trace-out` is the command that writes the Perfetto file
    out = tmp_path / "trace.json"
    assert main([
        "simulate", "--strategy", "lazy-group", *_SMALL,
        "--faults", "partition=3", "--trace-out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "ui.perfetto.dev" in printed
    doc = json.load(out.open())
    assert doc["traceEvents"]
    body = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    assert [e["ts"] for e in body] == sorted(e["ts"] for e in body)
    assert any(e["cat"] == "partition" for e in body)


def test_simulate_trace_out(tmp_path, capsys):
    # --trace-out alone records every category, none dropped
    out = tmp_path / "trace.json"
    assert main([
        "simulate", "--strategy", "lazy-group", *_SMALL,
        "--faults", "partition=3", "--trace-out", str(out),
    ]) == 0
    assert "trace sample" not in capsys.readouterr().out
    doc = json.load(out.open())
    assert doc["otherData"]["dropped"] == 0
    categories = {e["cat"] for e in doc["traceEvents"] if e["ph"] != "M"}
    assert "reconcile" in categories and "txn,commit" in categories


def test_simulate_trace_narrows_the_exported_categories(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main([
        "simulate", "--strategy", "lazy-master", *_SMALL,
        "--trace", "commit", "--trace-out", str(out),
    ]) == 0
    assert "trace sample" in capsys.readouterr().out
    body = [e for e in json.load(out.open())["traceEvents"] if e["ph"] != "M"]
    assert body and {e["cat"] for e in body} == {"txn,commit"}


def test_simulate_rejects_an_unknown_trace_category(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *_SMALL, "--trace", "deadlocks"])
    assert exc.value.code == 2
    assert "unknown trace categories ['deadlocks']" in capsys.readouterr().err


def test_sweep_series_out(tmp_path, capsys):
    series_dir = tmp_path / "series"
    assert main([
        "sweep", "--strategy", "lazy-group", "--nodes", "2,3",
        "--seeds", "2", "--db-size", "60", "--tps", "4",
        "--duration", "8", "--jobs", "0", "--no-cache",
        "--series-out", str(series_dir),
    ]) == 0
    files = sorted(series_dir.glob("*.json"))
    assert [f.name for f in files] == [
        "lazy-group_nodes2.json", "lazy-group_nodes3.json",
    ]
    doc = json.load(files[0].open())
    assert {r["seed"] for r in doc["runs"]} == {0, 1}
    series = doc["runs"][0]["series"]["series"]
    assert "commit_rate" in series and "reconciliation_rate" in series
