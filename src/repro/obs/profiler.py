"""Wall-clock hot-spot profiling of the simulation engine itself.

The engine's main loop dispatches every scheduled callback; the profiler
taps that single choke point and buckets real (wall-clock) time by what ran
— process steps under their process *name* (normalised: trailing
``@node`` / ``-id`` numerics stripped, so every ``handler-replica-update-N``
lands in one bucket), bare callbacks under their qualified function name.
That answers "where does a simulated second actually go?" — the measurement
baseline any engine optimisation work should start from.

Zero cost when off: :attr:`Engine.profiler` is ``None`` by default and the
run loop only pays an attribute check.  Install/uninstall::

    profiler = Profiler().install(system.engine)
    system.run()
    print(profiler.table())
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.metrics.report import format_table
from repro.sim.process import Process

#: trailing `-123` / `@4` id suffixes collapse into one bucket per kind
_ID_SUFFIX = re.compile(r"(?:[@-]\d+)+$")


def bucket_name(callback: Callable, args: Tuple[Any, ...]) -> str:
    """The profile bucket one dispatch belongs to."""
    if args and isinstance(args[0], Process):
        name = args[0].name or "anonymous-process"
        return _ID_SUFFIX.sub("", name) or name
    return getattr(callback, "__qualname__", repr(callback))


@dataclass
class Bucket:
    """Aggregate cost of one dispatch kind."""

    name: str
    calls: int = 0
    seconds: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.seconds / self.calls * 1e6 if self.calls else 0.0


class Profiler:
    """Counts and times engine callback dispatches, bucketed by name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.buckets: Dict[str, Bucket] = {}
        self.total_dispatches = 0
        self.total_seconds = 0.0
        self._engine = None

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def install(self, engine) -> "Profiler":
        """Hook this profiler into ``engine``'s dispatch path."""
        if engine.profiler is not None:
            raise ConfigurationError("engine already has a profiler installed")
        engine.profiler = self
        self._engine = engine
        return self

    def uninstall(self) -> None:
        if self._engine is not None and self._engine.profiler is self:
            self._engine.profiler = None
        self._engine = None

    # ------------------------------------------------------------------ #
    # the dispatch tap (called by Engine.run)
    # ------------------------------------------------------------------ #

    def dispatch(self, callback: Callable, args: Tuple[Any, ...]) -> None:
        t0 = self._clock()
        try:
            callback(*args)
        finally:
            elapsed = self._clock() - t0
            name = bucket_name(callback, args)
            bucket = self.buckets.get(name)
            if bucket is None:
                bucket = self.buckets[name] = Bucket(name)
            bucket.calls += 1
            bucket.seconds += elapsed
            self.total_dispatches += 1
            self.total_seconds += elapsed

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def hot_spots(self, top: Optional[int] = None) -> List[Bucket]:
        """Buckets by cumulative wall time, hottest first."""
        ranked = sorted(
            self.buckets.values(),
            key=lambda b: (-b.seconds, b.name),
        )
        return ranked[:top] if top is not None else ranked

    def table(self) -> str:
        """The 15 hottest buckets as an aligned table."""
        rows = [
            [
                b.name,
                b.calls,
                f"{b.seconds * 1e3:.3f}",
                f"{b.mean_us:.2f}",
                (f"{b.seconds / self.total_seconds * 100:.1f}%"
                 if self.total_seconds else "-"),
            ]
            for b in self.hot_spots(15)
        ]
        return format_table(
            ["bucket", "calls", "total ms", "mean µs", "share"],
            rows,
            title=(
                f"engine hot spots: {self.total_dispatches} dispatches, "
                f"{self.total_seconds * 1e3:.1f} ms wall"
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_dispatches": self.total_dispatches,
            "total_seconds": self.total_seconds,
            "buckets": [
                {
                    "name": b.name,
                    "calls": b.calls,
                    "seconds": b.seconds,
                }
                for b in self.hot_spots()
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Profiler dispatches={self.total_dispatches} "
            f"wall={self.total_seconds:.4f}s buckets={len(self.buckets)}>"
        )
