"""Tests for counters, rates, and report rendering."""

import pytest

from repro.exceptions import ConfigurationError
from repro.metrics import Metrics, format_series, format_table, summarize
from repro.metrics.report import growth_caption


class TestMetrics:
    def test_defaults_zero(self):
        m = Metrics()
        assert m.waits == 0
        assert m.deadlocks == 0
        assert all(v == 0 for v in m.as_dict().values())

    def test_bump_known_counter(self):
        m = Metrics()
        m.bump("waits")
        m.bump("waits", 4)
        assert m.waits == 5

    def test_bump_adhoc_counter_goes_to_extra(self):
        m = Metrics()
        m.bump("custom_thing", 2)
        assert m.extra["custom_thing"] == 2
        assert m.as_dict()["custom_thing"] == 2


class TestRates:
    def test_rates_divide_by_horizon(self):
        m = Metrics()
        m.waits = 50
        m.deadlocks = 10
        m.commits = 200
        summary = summarize(m, horizon=10.0)
        assert summary.wait_rate == 5.0
        assert summary.deadlock_rate == 1.0
        assert summary.commit_rate == 20.0

    def test_zero_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize(Metrics(), horizon=0)

    def test_as_dict_round_trip(self):
        summary = summarize(Metrics(), horizon=5.0)
        d = summary.as_dict()
        assert d["horizon"] == 5.0
        assert d["wait_rate"] == 0.0


class TestReport:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bbbb"], [(1, 2), (300, 4)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert "a" in lines[0] and "bbbb" in lines[0]
        # all rows same width
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_with_title(self):
        text = format_table(["x"], [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_format_table_large_and_small_floats(self):
        text = format_table(["v"], [(1.23456e8,), (0.000012,), (0.0,)])
        assert "e+" in text or "E+" in text
        assert "e-" in text
        assert "0" in text

    def test_format_series_log_bars_grow(self):
        text = format_series([1, 10, 100], [1.0, 1000.0, 1e6],
                             x_label="n", y_label="rate")
        lines = text.splitlines()[1:]
        bars = [line.count("#") for line in lines]
        assert bars[0] < bars[1] < bars[2]

    def test_format_series_handles_zeros(self):
        text = format_series([1, 2], [0.0, 5.0])
        assert "0" in text  # zero row rendered without a bar

    def test_format_series_all_zero(self):
        text = format_series([1, 2], [0.0, 0.0])
        assert "1" in text and "2" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series([1], [1.0, 2.0])

    def test_growth_caption_names_orders(self):
        assert "cubic" in growth_caption(2.98)
        assert "quadratic" in growth_caption(2.1)
        assert "linear" in growth_caption(1.02)
        assert "quintic" in growth_caption(4.9)
