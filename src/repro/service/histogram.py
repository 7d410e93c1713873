"""O(1)-memory latency histograms for the live service path.

A load test at thousands of transactions per second cannot afford to keep
every sample, so :class:`LatencyHistogram` buckets latencies geometrically:
bucket ``i`` covers ``[BASE * GROWTH**i, BASE * GROWTH**(i+1))`` seconds,
spanning ~1 µs to ~100 s in 277 buckets at 7% relative resolution — more
than enough to quote p50/p95/p99 honestly (the quoted value is the upper
edge of the bucket containing the quantile, so percentiles never
under-report).  Exact count/sum/min/max ride along for means and tails.

Histograms serialize to plain dicts (sparse: only occupied buckets) and
merge bucket-wise, so per-connection histograms roll up into the run-level
one and the gateway can ship its server-side view to the load-test client
inside the drain reply.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

#: lower edge of bucket 0 (seconds) — ~1 µs, far below any socket round trip
_BASE = 1e-6
#: geometric growth per bucket: 7% relative error, 277 buckets to 100 s
_GROWTH = 1.07
_LOG_GROWTH = math.log(_GROWTH)
#: samples above the last bucket edge clamp into the overflow bucket
_NUM_BUCKETS = int(math.ceil(math.log(100.0 / _BASE) / _LOG_GROWTH)) + 1


class LatencyHistogram:
    """Log-bucketed histogram of latency samples (seconds)."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}  # sparse: bucket index -> count
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @staticmethod
    def bucket_index(seconds: float) -> int:
        if seconds < _BASE:
            return 0
        index = int(math.log(seconds / _BASE) / _LOG_GROWTH)
        return index if index < _NUM_BUCKETS else _NUM_BUCKETS - 1

    @staticmethod
    def bucket_upper_edge(index: int) -> float:
        return _BASE * _GROWTH ** (index + 1)

    def record(self, seconds: float) -> None:
        """Add one sample."""
        if seconds < 0:
            raise ValueError(f"latency cannot be negative: {seconds}")
        index = self.bucket_index(seconds)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total += seconds
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds

    def percentile(self, q: float) -> Optional[float]:
        """Upper edge of the bucket holding quantile ``q`` (0 < q <= 100).

        None when empty.  The exact max is returned for the top of the
        distribution so p100 (and any quantile landing in the last occupied
        bucket) never exceeds an actually observed value's bucket ceiling.
        """
        if not 0 < q <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {q}")
        if self.count == 0:
            return None
        rank = math.ceil(self.count * q / 100.0)
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                edge = self.bucket_upper_edge(index)
                # never quote beyond the true observed maximum
                return min(edge, self.max) if self.max is not None else edge
        return self.max  # pragma: no cover - rank <= count always hits above

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram (in place)."""
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def summary_ms(
        self, quantiles: Iterable[float] = (50.0, 90.0, 95.0, 99.0)
    ) -> Dict[str, Optional[float]]:
        """The headline numbers, in milliseconds, for reports and benches."""
        out: Dict[str, Optional[float]] = {}
        for q in quantiles:
            value = self.percentile(q)
            key = f"p{q:g}"
            out[key] = round(value * 1000.0, 4) if value is not None else None
        out["mean"] = round(self.mean * 1000.0, 4) if self.count else None
        out["max"] = round(self.max * 1000.0, 4) if self.max is not None else None
        out["count"] = self.count
        return out

    def to_dict(self) -> dict:
        buckets: List[Tuple[int, int]] = sorted(self.counts.items())
        return {
            "base_seconds": _BASE,
            "growth": _GROWTH,
            "count": self.count,
            "total_seconds": self.total,
            "min_seconds": self.min,
            "max_seconds": self.max,
            "buckets": [[index, n] for index, n in buckets],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.count:
            return "<LatencyHistogram empty>"
        p50 = self.percentile(50.0)
        p99 = self.percentile(99.0)
        return (
            f"<LatencyHistogram n={self.count} "
            f"p50={p50 * 1000:.2f}ms p99={p99 * 1000:.2f}ms>"
        )
