"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Table 2" in out
    assert "DB_Size" in out


def test_danger_command(capsys):
    assert main(["danger", "--nodes", "10"]) == 0
    out = capsys.readouterr().out
    assert "eq 12" in out
    assert "N^3.0" in out
    assert "N^2.0" in out  # lazy-master quadratic


def test_danger_with_disconnects(capsys):
    assert main(["danger", "--nodes", "8", "--disconnect-time", "100"]) == 0
    out = capsys.readouterr().out
    assert "eq 18" in out


def test_simulate_command(capsys):
    assert main([
        "simulate", "--strategy", "lazy-master", "--nodes", "2",
        "--db-size", "50", "--tps", "2", "--actions", "2",
        "--action-time", "0.001", "--duration", "10",
    ]) == 0
    out = capsys.readouterr().out
    assert "commit_rate" in out
    assert "divergence after drain: 0" in out


def test_simulate_two_tier_commutative(capsys):
    assert main([
        "simulate", "--strategy", "two-tier", "--nodes", "2",
        "--db-size", "50", "--tps", "2", "--actions", "2",
        "--action-time", "0.001", "--duration", "10",
        "--disconnect-time", "2", "--commutative",
    ]) == 0
    out = capsys.readouterr().out
    assert "tentative_accepted" in out


def test_simulate_writes_json(tmp_path, capsys):
    out_file = tmp_path / "run.json"
    assert main([
        "simulate", "--strategy", "lazy-master", "--nodes", "2",
        "--db-size", "50", "--tps", "2", "--actions", "2",
        "--action-time", "0.001", "--duration", "10",
        "--json", str(out_file),
    ]) == 0
    import json

    data = json.loads(out_file.read_text())
    assert data["config"]["strategy"] == "lazy-master"
    assert data["counters"]["commits"] > 0


def test_simulate_with_trace_sample(capsys):
    assert main([
        "simulate", "--strategy", "eager-group", "--nodes", "2",
        "--db-size", "30", "--tps", "3", "--actions", "2",
        "--action-time", "0.005", "--duration", "8",
        "--trace", "commit",
    ]) == 0
    out = capsys.readouterr().out
    assert "trace sample" in out
    assert "commit" in out


def test_compare_command(capsys):
    assert main([
        "compare", "--nodes", "2", "--db-size", "60", "--tps", "2",
        "--actions", "2", "--action-time", "0.001", "--duration", "10",
    ]) == 0
    out = capsys.readouterr().out
    for name in ["eager-group", "lazy-master", "two-tier"]:
        assert name in out


def test_verify_command_serializable_strategy(capsys):
    code = main([
        "verify", "--strategy", "eager-master", "--nodes", "2",
        "--db-size", "20", "--tps", "2", "--actions", "2",
        "--action-time", "0.002", "--duration", "10",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "one-copy serializable: True" in out
    assert "all invariants hold" in out


def test_verify_command_lazy_group_reports_anomaly(capsys):
    code = main([
        "verify", "--strategy", "lazy-group", "--nodes", "3",
        "--db-size", "5", "--tps", "3", "--actions", "2",
        "--action-time", "0.002", "--message-delay", "0.5",
        "--duration", "15",
    ])
    out = capsys.readouterr().out
    assert code == 0  # the anomaly is expected for lazy-group
    assert "one-copy serializable: False" in out
    assert "anomaly witness" in out


def test_parser_rejects_unknown_strategy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--strategy", "psychic"])


def test_parser_requires_command():
    # no verb, or the retired ``bench`` verb: argparse usage error, exit 2
    for argv in ([], ["bench"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


def test_message_delay_help_names_both_paths():
    # the help string documents that the simulator honours the flag and
    # the analytic model ignores it
    subparsers = build_parser()._subparsers._group_actions[0]
    for command in ("simulate", "danger", "sweep"):
        actions = [a for a in subparsers.choices[command]._actions
                   if "--message-delay" in a.option_strings]
        assert actions, command
        assert "simulator honours" in actions[0].help
        assert "analytic model ignores" in actions[0].help


SWEEP_TINY = [
    "--db-size", "50", "--tps", "2", "--actions", "2",
    "--action-time", "0.001", "--duration", "5", "--seeds", "2",
]


def test_sweep_command_inline(capsys):
    assert main([
        "sweep", "--strategy", "lazy-group", "--nodes", "1,2",
        "--jobs", "0", "--no-cache", *SWEEP_TINY,
    ]) == 0
    out = capsys.readouterr().out
    assert "campaign: lazy-group" in out
    assert "measured (±95% CI)" in out
    assert "fit exponents" in out
    assert "analytic N^" in out
    assert "cache: 0/4 hits" in out


def test_sweep_command_parallel_multi_strategy(capsys):
    assert main([
        "sweep", "--strategy", "lazy-group,lazy-master", "--nodes", "1,2",
        "--jobs", "2", "--no-cache", *SWEEP_TINY,
    ]) == 0
    out = capsys.readouterr().out
    assert "lazy-group" in out and "lazy-master" in out
    assert "8 runs (8 ok, 0 failed)" in out


def test_sweep_cache_hits_on_identical_rerun(tmp_path, capsys):
    argv = [
        "sweep", "--strategy", "lazy-master", "--nodes", "1,2",
        "--jobs", "0", "--cache-dir", str(tmp_path / "cache"), *SWEEP_TINY,
    ]
    assert main(argv) == 0
    assert "cache: 0/4 hits" in capsys.readouterr().out
    assert main(argv) == 0
    assert "cache: 4/4 hits" in capsys.readouterr().out


def test_sweep_exports_json_and_csv(tmp_path, capsys):
    import json

    json_path = tmp_path / "campaign.json"
    csv_path = tmp_path / "campaign.csv"
    assert main([
        "sweep", "--strategy", "lazy-master", "--nodes", "1,2",
        "--jobs", "0", "--no-cache", "--json", str(json_path),
        "--csv", str(csv_path), *SWEEP_TINY,
    ]) == 0
    data = json.loads(json_path.read_text())
    assert data["summary"]["runs"] == 4
    assert data["cells"][0]["strategy"] == "lazy-master"
    assert csv_path.read_text().startswith("strategy,axis,value,rate")


def test_sweep_rejects_bad_nodes_list():
    with pytest.raises(SystemExit):
        main(["sweep", "--strategy", "lazy-group", "--nodes", "1,two",
              "--jobs", "0", "--no-cache"])


def test_sweep_rejects_unknown_strategy():
    with pytest.raises(SystemExit):
        main(["sweep", "--strategy", "psychic", "--nodes", "1,2",
              "--jobs", "0", "--no-cache"])


def test_sweep_strategy_all(capsys):
    assert main([
        "sweep", "--strategy", "all", "--nodes", "2", "--jobs", "0",
        "--no-cache", "--db-size", "50", "--tps", "2", "--actions", "2",
        "--action-time", "0.001", "--duration", "5", "--seeds", "1",
    ]) == 0
    out = capsys.readouterr().out
    for name in ["eager-group", "eager-master", "lazy-group",
                 "lazy-master", "two-tier"]:
        assert name in out


def test_danger_measure_adds_simulated_points(capsys):
    assert main([
        "danger", "--nodes", "2", "--db-size", "60", "--tps", "2",
        "--actions", "2", "--action-time", "0.001", "--measure",
        "--seeds", "2", "--jobs", "0", "--duration", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "eq 12" in out  # analytic curves still printed
    assert "measured danger rates" in out
    assert "sim/model" in out


def test_compare_with_jobs_matches_inline(capsys):
    argv = [
        "compare", "--nodes", "2", "--db-size", "60", "--tps", "2",
        "--actions", "2", "--action-time", "0.001", "--duration", "10",
    ]
    assert main(argv) == 0
    inline = capsys.readouterr().out
    assert main([*argv, "--jobs", "2"]) == 0
    pooled = capsys.readouterr().out
    assert pooled == inline
