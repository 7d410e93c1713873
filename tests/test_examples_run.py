"""Smoke tests: every example script must run clean.

Examples are documentation; a broken one is a broken promise.  Each runs in
a subprocess exactly as a user would invoke it.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "checkbook_demo.py",
    "sales_campaign.py",
    "scalability_report.py",
    "anomaly_hunt.py",
    "notes_lazy_group.py",
    "tpcb_bank.py",
])
def test_example_runs_clean(script):
    result = run_example(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()  # produced real output


def test_quickstart_tells_the_whole_story():
    result = run_example("quickstart.py")
    out = result.stdout
    assert "1000" in out  # the thousand-fold amplification
    assert "BOUNCED" in out  # the rejected check
    assert "rejected:               0" in out  # commutative case


def test_scalability_report_shows_growth_orders():
    result = run_example("scalability_report.py")
    out = result.stdout
    assert "N^3.0" in out
    assert "N^2.0" in out
    assert "N^1.0" in out
    assert "UNSTABLE" in out  # the validity-region table


def test_anomaly_hunt_finds_the_cycle():
    result = run_example("anomaly_hunt.py")
    out = result.stdout
    assert out.count("serializable ✓") == 3
    assert "NOT serializable ✗" in out


def test_tpcb_bank_breaks_only_under_timestamps():
    result = run_example("tpcb_bank.py")
    out = result.stdout
    assert "branch == sum(tellers) at every branch: False" in out
    assert out.count("branch == sum(tellers) at every branch: True") == 2


def test_notes_lazy_group_loses_only_renames():
    result = run_example("notes_lazy_group.py")
    out = result.stdout
    assert "converged: True (oracle ok" in out
    assert out.count("rename was overwritten") == 2  # one title survives
    assert "6 of 6 cast" in out
