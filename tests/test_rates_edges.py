"""Edge cases for RateSummary/summarize and Metrics strict mode."""

import pytest

from repro.exceptions import ConfigurationError
from repro.metrics.counters import Metrics
from repro.metrics.rates import summarize


# --------------------------------------------------------------------- #
# summarize horizon edges
# --------------------------------------------------------------------- #


def test_zero_duration_rejected():
    with pytest.raises(ConfigurationError):
        summarize(Metrics(), 0.0)


def test_negative_duration_rejected():
    with pytest.raises(ConfigurationError):
        summarize(Metrics(), -1.0)


def test_zero_commits_zero_rates():
    rates = summarize(Metrics(), 10.0)
    assert rates.commit_rate == 0.0
    assert rates.deadlock_rate == 0.0
    assert rates.reconciliation_rate == 0.0
    assert rates.abort_rate == 0.0
    assert all(v == 0.0 for k, v in rates.as_dict().items()
               if k != "horizon")


def test_rates_divide_by_horizon():
    metrics = Metrics(commits=30, deadlocks=3)
    rates = summarize(metrics, 10.0)
    assert rates.commit_rate == 3.0
    assert rates.deadlock_rate == 0.3


# --------------------------------------------------------------------- #
# Metrics.bump strict mode
# --------------------------------------------------------------------- #


def test_bump_declared_counter():
    m = Metrics(strict=True)
    m.bump("commits")
    m.bump("commits", 2)
    assert m.commits == 3


def test_bump_known_extra_allowed_in_strict_mode():
    m = Metrics(strict=True)
    for name in Metrics.KNOWN_EXTRAS:
        m.bump(name)
    assert m.extra == {name: 1 for name in Metrics.KNOWN_EXTRAS}


def test_bump_typo_rejected_in_strict_mode():
    m = Metrics(strict=True)
    with pytest.raises(KeyError, match="comits"):
        m.bump("comits")
    assert m.extra == {}


def test_bump_adhoc_extra_allowed_by_default():
    m = Metrics()
    m.bump("my_experiment_counter", 5)
    assert m.extra["my_experiment_counter"] == 5
    assert m.as_dict()["my_experiment_counter"] == 5


def test_strict_flag_not_a_counter():
    m = Metrics(strict=True)
    assert "strict" not in m.as_dict()
    with pytest.raises(KeyError):
        m.bump("strict")
