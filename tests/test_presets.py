"""Tests for the scenario presets and their CLI integration."""

import pytest

from repro.analytic.presets import PRESETS, preset
from repro.cli import main


def test_all_presets_are_valid_parameters():
    for name, params in PRESETS.items():
        assert params.db_size > 0, name
        assert params.nodes > 0, name


def test_preset_lookup():
    assert preset("paper-baseline").db_size == 10_000
    with pytest.raises(KeyError) as err:
        preset("bogus")
    assert "available" in str(err.value)


def test_mobile_presets_have_disconnects():
    assert preset("mobile-nightly").disconnect_time == 24 * 3600
    assert preset("mobile-hourly").disconnect_time == 3600


def test_checkbook_preset_matches_the_story():
    p = preset("checkbook")
    assert p.nodes == 3  # you, spouse, bank
    assert p.actions == 1  # one check at a time


def test_nightly_collisions_exceed_hourly():
    """More pent-up updates per cycle -> more collisions (eq 17)."""
    from repro.analytic import lazy_group

    nightly = lazy_group.collision_probability(preset("mobile-nightly"))
    hourly = lazy_group.collision_probability(preset("mobile-hourly"))
    assert nightly > hourly


def test_cli_accepts_preset(capsys):
    assert main(["danger", "--preset", "mobile-hourly"]) == 0
    out = capsys.readouterr().out
    assert "eq 18" in out  # disconnect_time > 0 adds the mobile curve


def test_cli_preset_with_override(capsys):
    assert main(["tables", "--preset", "checkbook", "--nodes", "7"]) == 0
    out = capsys.readouterr().out
    assert "7" in out


@pytest.mark.parametrize("argv, field, value", [
    # each flag equals the old argparse default, which the CLI once took
    # for "not given" and so dropped in favour of the preset's field
    (["--preset", "oltp-cluster", "--nodes", "10"], "Nodes", "10"),
    (["--preset", "mobile-nightly", "--disconnect-time", "0"],
     "Disconnected_Time", "0"),
], ids=["oltp-nodes-10", "nightly-disconnect-0"])
def test_cli_flag_at_the_baseline_value_overrides_preset(
    capsys, argv, field, value
):
    assert main(["tables", *argv]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.split("|")[0].strip() == field)
    assert row.split("|")[1].strip() == value


def test_paper_baseline_is_the_default_preset(capsys):
    assert main(["tables"]) == 0
    default = capsys.readouterr().out
    assert main(["tables", "--preset", "paper-baseline"]) == 0
    assert capsys.readouterr().out == default
