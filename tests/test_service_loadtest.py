"""Tests for the load-test client stack: histogram, wire codec, Zipf
skew, and a real gateway+loadtest pair with the end-to-end oracle."""

import asyncio
import random

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.report import service_report_markdown
from repro.service import (
    GatewayConfig,
    LatencyHistogram,
    LoadtestConfig,
    ServiceGateway,
    run_loadtest,
)
from repro.service.protocol import (
    ProtocolError,
    decode_acceptance,
    decode_line,
    decode_ops,
    encode_line,
    encode_op,
)
from repro.txn.ops import AppendOp, IncrementOp, MultiplyOp, ReadOp, WriteOp
from repro.workload import ZipfProfile, ZipfSampler


class TestLatencyHistogram:
    def test_percentiles_within_bucket_resolution(self):
        hist = LatencyHistogram()
        samples = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1s
        for s in samples:
            hist.record(s)
        for q in (50, 90, 95, 99):
            exact = samples[int(len(samples) * q / 100) - 1]
            quoted = hist.percentile(q)
            assert quoted >= exact * 0.93  # never under-report past 7%
            assert quoted <= exact * 1.15  # one bucket of over-report

    def test_percentiles_are_monotonic(self):
        hist = LatencyHistogram()
        rng = random.Random(3)
        for _ in range(500):
            hist.record(rng.expovariate(100.0))
        quantiles = [hist.percentile(q) for q in (10, 50, 90, 99, 100)]
        assert quantiles == sorted(quantiles)

    def test_never_quotes_beyond_the_observed_max(self):
        hist = LatencyHistogram()
        hist.record(0.5)
        assert hist.percentile(99) == 0.5
        assert hist.percentile(100) == 0.5

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(99) is None
        assert hist.mean is None
        summary = hist.summary_ms()
        assert summary["count"] == 0
        assert summary["p99"] is None

    def test_rejects_negative_samples_and_bad_quantiles(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.record(-0.1)
        hist.record(0.1)
        with pytest.raises(ValueError):
            hist.percentile(0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_merge_equals_combined_recording(self):
        rng = random.Random(7)
        samples = [rng.uniform(0.0001, 2.0) for _ in range(300)]
        combined = LatencyHistogram()
        left, right = LatencyHistogram(), LatencyHistogram()
        for i, s in enumerate(samples):
            combined.record(s)
            (left if i % 2 else right).record(s)
        left.merge(right)
        assert left.counts == combined.counts
        assert left.count == combined.count
        assert left.min == combined.min
        assert left.max == combined.max
        assert left.total == pytest.approx(combined.total)

    def test_dict_round_trip(self):
        hist = LatencyHistogram()
        for s in (0.001, 0.01, 0.01, 3.0):
            hist.record(s)
        clone = LatencyHistogram.from_dict(hist.to_dict())
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        assert clone.min == hist.min
        assert clone.max == hist.max
        assert clone.percentile(50) == hist.percentile(50)

    def test_from_dict_rejects_foreign_bucket_layout(self):
        """Regression: silently adopting counts serialized under a
        different base/growth would mis-bucket every sample on merge."""
        hist = LatencyHistogram()
        hist.record(0.01)
        payload = hist.to_dict()
        for key, bad in (("base_seconds", 1e-5), ("growth", 1.1)):
            broken = dict(payload)
            broken[key] = bad
            with pytest.raises(ValueError, match="layout mismatch"):
                LatencyHistogram.from_dict(broken)
        # payloads predating the layout fields assume the current layout
        legacy = {k: v for k, v in payload.items()
                  if k not in ("base_seconds", "growth")}
        assert LatencyHistogram.from_dict(legacy).count == 1


class TestWireCodec:
    def test_ops_round_trip(self):
        ops = [
            IncrementOp(3, -5),
            WriteOp(1, 42),
            ReadOp(9),
            MultiplyOp(2, 1.5),
            AppendOp(4, "entry"),
        ]
        decoded = decode_ops([encode_op(op) for op in ops])
        assert decoded == ops

    def test_append_items_come_back_hashable(self):
        # JSON renders tuples as lists; the decoder must coerce them back
        # so AppendOp items stay hashable/sortable in the record store
        [op] = decode_ops([["append", 0, [1, "h", 2.5]]])
        assert op.item == (1, "h", 2.5)
        hash(op.item)

    @pytest.mark.parametrize("raw", [
        None,
        [],
        [["frob", 1, 2]],
        [["inc", 1]],
        [["read", 1, 2]],
        ["inc", 1, 2],  # forgot the nesting
    ])
    def test_bad_ops_raise_protocol_errors(self, raw):
        with pytest.raises(ProtocolError):
            decode_ops(raw)

    def test_acceptance_names(self):
        assert type(decode_acceptance(None)).__name__ == "AlwaysAccept"
        for name in ("always", "identical", "non-negative",
                     "price-not-above", "within-tolerance"):
            decode_acceptance(name)  # must resolve
        with pytest.raises(ProtocolError):
            decode_acceptance("optimistic")

    def test_line_round_trip_and_errors(self):
        frame = {"type": "txn", "id": 7, "ops": [["inc", 0, 1]]}
        assert decode_line(encode_line(frame)) == frame
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1,2,3]\n")
        with pytest.raises(ProtocolError):
            decode_line(b'{"no_type": true}\n')
        with pytest.raises(ProtocolError):
            decode_line(b"x" * (2 << 20))


class TestZipf:
    def test_theta_and_n_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, theta=0.0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, theta=1.0)

    def test_samples_stay_in_range(self):
        sampler = ZipfSampler(100, theta=0.99)
        rng = random.Random(1)
        assert all(0 <= sampler.sample(rng) < 100 for _ in range(5000))

    def test_low_ranks_are_hot(self):
        sampler = ZipfSampler(1000, theta=0.99)
        rng = random.Random(2)
        draws = [sampler.sample(rng) for _ in range(20000)]
        top_decile = sum(1 for d in draws if d < 100)
        # uniform would put ~10% in the first decile; YCSB-0.99 puts the
        # clear majority there
        assert top_decile / len(draws) > 0.5

    def test_flatter_theta_is_less_skewed(self):
        rng_a, rng_b = random.Random(3), random.Random(3)
        hot = ZipfSampler(1000, theta=0.99)
        mild = ZipfSampler(1000, theta=0.2)
        hot_share = sum(
            1 for _ in range(10000) if hot.sample(rng_a) < 100
        )
        mild_share = sum(
            1 for _ in range(10000) if mild.sample(rng_b) < 100
        )
        assert hot_share > mild_share

    def test_profile_yields_distinct_oids(self):
        profile = ZipfProfile(actions=5, db_size=50, theta=0.9)
        rng = random.Random(4)
        for _ in range(200):
            oids = profile.choose_oids(rng)
            assert len(oids) == len(set(oids)) == 5

    def test_choose_oids_is_bounded_under_extreme_skew(self):
        """Regression: with ``actions`` near ``db_size`` under strong skew
        the unbounded rejection loop could spin pathologically re-drawing
        the same hot ranks; the attempt budget plus hottest-first fill must
        always return promptly with distinct in-range ids."""
        profile = ZipfProfile(actions=50, db_size=50, theta=0.99)
        rng = random.Random(5)
        for _ in range(50):
            oids = profile.choose_oids(rng)
            # demanding the whole database yields exactly a permutation
            assert sorted(oids) == list(range(50))
        near_full = ZipfProfile(actions=45, db_size=50, theta=0.99)
        for _ in range(50):
            oids = near_full.choose_oids(rng)
            assert len(oids) == len(set(oids)) == 45
            assert all(0 <= oid < 50 for oid in oids)


class TestLoadtestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadtestConfig(clients=0)
        with pytest.raises(ConfigurationError):
            LoadtestConfig(rate=0)
        with pytest.raises(ConfigurationError):
            LoadtestConfig(workload="bogus")
        with pytest.raises(ConfigurationError):
            LoadtestConfig(zipf_theta=1.5)

    def test_tpcb_db_size_follows_branches(self):
        config = LoadtestConfig(workload="tpcb", branches=2)
        assert config.effective_db_size() == 2 * (1 + 10 + 1000 + 1)


def _run_pair(gateway_config, loadtest_config, tmp_path):
    async def main():
        path = str(tmp_path / "lt.sock")
        gateway = ServiceGateway(gateway_config)
        await gateway.start(unix_path=path)
        server = asyncio.create_task(gateway.run())
        try:
            return await run_loadtest(loadtest_config, unix_path=path)
        finally:
            gateway.request_stop()
            await server

    return asyncio.run(main())


class TestLiveLoadtest:
    def test_uniform_run_is_oracle_clean(self, tmp_path):
        result = _run_pair(
            GatewayConfig(db_size=200, max_inflight=64),
            LoadtestConfig(clients=8, rate=300.0, duration=1.0,
                           workload="uniform", actions=2, db_size=200,
                           seed=11),
            tmp_path,
        )
        assert result["schema"] == 1
        assert result["kind"] == "service-loadtest"
        assert result["completed"] == result["sent"] > 0
        assert result["errors"] == 0
        assert result["lost"] == 0
        assert result["latency_ms"]["count"] == result["completed"]
        assert result["latency_ms"]["p99"] is not None
        oracle = result["oracle"]
        assert oracle["ok"], oracle
        assert oracle["base_divergence"] == 0
        assert oracle["wal_quiescent"] is True
        assert oracle["store_sum"] == pytest.approx(
            oracle["expected_store_sum"]
        )
        # the server's transport counters ride along, for the report's ratios
        io = result["server"]["io"]
        assert 0 < io["reads"] and 0 < io["writes"]
        assert "replies per write" in service_report_markdown(result)

    def test_checkbook_run_produces_real_rejections(self, tmp_path):
        result = _run_pair(
            GatewayConfig(db_size=100, max_inflight=64),
            LoadtestConfig(clients=8, rate=300.0, duration=1.0,
                           workload="checkbook", db_size=100, seed=5),
            tmp_path,
        )
        # overdrafts against a zero-balance book: the non-negative
        # criterion must actually fire, and the oracle must still balance
        # because rejected debits never reach the base store
        assert result["rejected"] > 0
        assert result["rejection_rate"] > 0
        assert result["oracle"]["ok"], result["oracle"]

    def test_zipf_skew_run_is_oracle_clean(self, tmp_path):
        result = _run_pair(
            GatewayConfig(db_size=150, max_inflight=64),
            LoadtestConfig(clients=4, rate=200.0, duration=0.8,
                           workload="uniform", zipf_theta=0.99,
                           actions=2, db_size=150, seed=3),
            tmp_path,
        )
        assert result["completed"] > 0
        assert result["oracle"]["ok"], result["oracle"]

    def test_no_drain_skips_the_oracle(self, tmp_path):
        result = _run_pair(
            GatewayConfig(db_size=100),
            LoadtestConfig(clients=2, rate=100.0, duration=0.5,
                           workload="uniform", db_size=100, drain=False),
            tmp_path,
        )
        assert "oracle" not in result
        assert result["completed"] > 0

    def test_nobody_sends_before_the_slowest_client_connects(
            self, tmp_path, monkeypatch):
        from repro.service import loadtest

        real_open, real_client = loadtest._open_connection, loadtest._client_run
        opened, connected_at, first_sends = [], [], []

        async def slow_first_open(*args):
            opened.append(None)
            if len(opened) == 1:
                await asyncio.sleep(0.3)
            connection = await real_open(*args)
            connected_at.append(asyncio.get_running_loop().time())
            return connection

        async def recording_client(*args):
            stats, welcome = await real_client(*args)
            first_sends.append(stats.first_send)
            return stats, welcome

        monkeypatch.setattr(loadtest, "_open_connection", slow_first_open)
        monkeypatch.setattr(loadtest, "_client_run", recording_client)
        result = _run_pair(
            GatewayConfig(db_size=100),
            LoadtestConfig(clients=4, rate=400.0, duration=0.5,
                           workload="uniform", db_size=100, drain=False),
            tmp_path,
        )
        assert result["completed"] == result["sent"] > 0
        assert len(first_sends) == 4 and None not in first_sends
        assert min(first_sends) >= max(connected_at)

    def test_a_client_that_cannot_connect_fails_the_run_promptly(
            self, tmp_path, monkeypatch):
        from repro.service import loadtest

        real_open = loadtest._open_connection
        opened = []

        async def refuse_the_third(*args):
            opened.append(None)
            if len(opened) == 3:
                raise ConnectionRefusedError("no route to gateway")
            return await real_open(*args)

        monkeypatch.setattr(loadtest, "_open_connection", refuse_the_third)
        # duration far beyond the test's patience: only an early exit passes
        config = LoadtestConfig(clients=4, rate=100.0, duration=60.0,
                                workload="uniform", db_size=100, drain=False)
        with pytest.raises(ConnectionRefusedError):
            _run_pair(GatewayConfig(db_size=100), config, tmp_path)
