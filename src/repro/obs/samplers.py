"""Windowed time-series sampling over a live simulation.

The paper's arguments are about *shapes over time* — a wait queue building
up, reconciliations exploding after a partition — which flat end-of-run
counters cannot show.  A :class:`Telemetry` handle owns a set of samplers
that an engine-scheduled tick drives at a fixed virtual-time cadence:

* :class:`GaugeSampler` records the instantaneous value of a probe
  (wait-queue depth, in-flight messages, WAL active transactions);
* :class:`CounterDeltaSampler` records the per-window *rate* of a
  monotonically increasing counter (commits/s, reconciliations/s), so a
  burst is visible in the window it happened rather than smeared over the
  whole run.

Sampling is strictly bounded: :meth:`Telemetry.schedule` pre-schedules
every tick up to a horizon, so an instrumented engine still drains to
quiescence (a self-rescheduling tick would keep the event queue alive
forever).  All state is plain floats and lists — series serialise with
:meth:`Telemetry.to_dict` and survive the campaign runner's process
boundary inside the result payload's ``extra["series"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError

#: glyphs for :func:`sparkline`, lowest to highest
_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: List[float], width: int = 48) -> str:
    """ASCII shape of a series' values, resampled to ``width`` columns."""
    if not values:
        return ""
    n = len(values)
    columns = min(width, n)
    peak = max(values)
    if peak <= 0:
        return _SPARK_LEVELS[0] * columns
    chars = []
    for c in range(columns):
        lo = c * n // columns
        hi = max(lo + 1, (c + 1) * n // columns)
        level = int(max(values[lo:hi]) / peak * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


@dataclass(frozen=True)
class SeriesSummary:
    """min/mean/max/last over one series (the report's sparkline caption)."""

    count: int
    minimum: float
    mean: float
    maximum: float
    last: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "min": self.minimum,
            "mean": self.mean,
            "max": self.maximum,
            "last": self.last,
        }


class TimeSeries:
    """One named series of (virtual time, value) samples."""

    def __init__(self, name: str):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def summary(self) -> SeriesSummary:
        if not self.values:
            return SeriesSummary(0, 0.0, 0.0, 0.0, 0.0)
        return SeriesSummary(
            count=len(self.values),
            minimum=min(self.values),
            mean=sum(self.values) / len(self.values),
            maximum=max(self.values),
            last=self.values[-1],
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "times": list(self.times),
            "values": list(self.values),
            "summary": self.summary().as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TimeSeries {self.name!r} n={len(self.values)}>"


class GaugeSampler:
    """Samples the instantaneous value of ``probe()`` every tick."""

    def __init__(self, series: TimeSeries, probe: Callable[[], float]):
        self.series = series
        self.probe = probe

    def sample(self, now: float, window: float) -> None:
        self.series.append(now, float(self.probe()))


class CounterDeltaSampler:
    """Samples the per-second rate of a cumulative counter over each window.

    ``probe()`` must be monotonically non-decreasing (a counter); each tick
    records ``(current - previous) / window``.
    """

    def __init__(self, series: TimeSeries, probe: Callable[[], float]):
        self.series = series
        self.probe = probe
        # the first window starts at t=0: priming against zero means
        # startup activity lands in window one instead of being lost
        self._previous = 0.0

    def sample(self, now: float, window: float) -> None:
        current = float(self.probe())
        delta = current - self._previous
        self._previous = current
        self.series.append(now, delta / window if window > 0 else 0.0)


class Telemetry:
    """The single observability handle threaded through a system.

    Owns the registered samplers, the recorded series, and a timeline of
    discrete *marks* (fault onsets, partitions, recoveries).  Components
    register probes against it at construction time
    (:meth:`~repro.replication.base.ReplicatedSystem._register_probes`);
    the harness then calls :meth:`schedule` once the measurement horizon is
    known.

    Args:
        interval: virtual seconds between samples (the window width).
    """

    def __init__(self, interval: float = 1.0):
        if interval <= 0:
            raise ConfigurationError(
                f"sample interval must be positive, got {interval}"
            )
        self.interval = interval
        self.series: Dict[str, TimeSeries] = {}
        self.marks: List[Tuple[float, str, Dict[str, Any]]] = []
        self._samplers: List[Any] = []
        self._scheduled = False

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def _new_series(self, name: str) -> TimeSeries:
        if name in self.series:
            raise ConfigurationError(f"series {name!r} is already registered")
        series = TimeSeries(name)
        self.series[name] = series
        return series

    def gauge(self, name: str, probe: Callable[[], float]) -> TimeSeries:
        """Register an instantaneous-value probe sampled every tick."""
        series = self._new_series(name)
        self._samplers.append(GaugeSampler(series, probe))
        return series

    def counter_rate(self, name: str, probe: Callable[[], float]) -> TimeSeries:
        """Register a cumulative counter, recorded as per-window rate."""
        series = self._new_series(name)
        self._samplers.append(CounterDeltaSampler(series, probe))
        return series

    def mark(self, time: float, label: str, **detail: Any) -> None:
        """Record a discrete timeline event (partition start, crash, ...)."""
        self.marks.append((time, label, detail))

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #

    def sample(self, now: float) -> None:
        """Take one sample of every registered probe (one window ends)."""
        for sampler in self._samplers:
            sampler.sample(now, self.interval)

    def schedule(self, engine, horizon: float) -> int:
        """Pre-schedule sample ticks on ``engine`` up to ``horizon``.

        Ticks land at ``interval, 2*interval, ... <= horizon`` plus one
        final tick at the horizon itself when it is not already a multiple,
        so the last partial window is never silently dropped.  Bounded
        scheduling keeps the engine drainable.  Returns the tick count.
        """
        if self._scheduled:
            raise ConfigurationError("telemetry ticks are already scheduled")
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        self._scheduled = True
        ticks = 0
        t = self.interval
        while t < horizon + 1e-12:
            engine.schedule_at(t, self._tick, engine)
            t += self.interval
            ticks += 1
        if ticks == 0 or t - self.interval < horizon - 1e-12:
            engine.schedule_at(horizon, self._tick, engine)
            ticks += 1
        return ticks

    def _tick(self, engine) -> None:
        self.sample(engine.now)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot (crosses the campaign worker boundary)."""
        return {
            "interval": self.interval,
            "series": {
                name: series.to_dict()
                for name, series in sorted(self.series.items())
            },
            "marks": [
                {"time": t, "label": label, "detail": dict(detail)}
                for t, label, detail in self.marks
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Telemetry interval={self.interval:g} "
            f"series={len(self.series)} marks={len(self.marks)}>"
        )
