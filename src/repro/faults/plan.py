"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is pure data: per-link fault probabilities plus a
timetable of partitions and node crashes.  It carries no randomness of its
own — the :class:`~repro.faults.injector.FaultInjector` draws every coin
flip from a ``RandomSource`` forked off the experiment's master seed under
the plan's ``fault_seed``, so

* the same (workload seed, plan) always produces the same fault timeline,
* changing ``fault_seed`` reshuffles the faults while leaving every
  workload stream (arrivals, operations, backoffs) byte-identical.

Plans serialise to canonical dictionaries (:meth:`FaultPlan.to_dict`) so
they can join the campaign cache's content-hash key, and parse from the
CLI's compact ``drop=0.05,partition=2`` syntax via :meth:`FaultPlan.from_spec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.exceptions import ConfigurationError
from repro.specs import (
    FOREVER,  # noqa: F401 - the spec value for "never heals / recovers"
    canonical,
    coerce_float,
    coerce_window,
    split_spec_items,
)


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class LinkFaults:
    """Per-message fault probabilities for every inter-node link.

    Args:
        drop: probability a message is silently lost on the wire.
        duplicate: probability a message is delivered twice.
        reorder: probability a message takes an extra uniform delay of up
            to ``reorder_window`` seconds, letting later sends overtake it.
        reorder_window: the maximum reorder delay.
        jitter: every message gets a uniform extra latency in [0, jitter].
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_window: float = 0.1
    jitter: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("drop", self.drop)
        _check_probability("duplicate", self.duplicate)
        _check_probability("reorder", self.reorder)
        if self.reorder_window < 0:
            raise ConfigurationError("reorder_window must be >= 0")
        if self.jitter < 0:
            raise ConfigurationError("jitter must be >= 0")

    @property
    def empty(self) -> bool:
        return (self.drop == 0.0 and self.duplicate == 0.0
                and self.reorder == 0.0 and self.jitter == 0.0)

    @property
    def lossless(self) -> bool:
        """Duplicates, reordering, and jitter never lose information."""
        return self.drop == 0.0


@dataclass(frozen=True)
class Partition:
    """A timed bidirectional cut between two node groups.

    While active, every (left, right) pair is unreachable in both
    directions; traffic parks in store-and-forward queues.  At
    ``start + duration`` the cut heals and parked messages flush.  A
    ``duration`` of ``math.inf`` never heals.
    """

    start: float
    duration: float
    left: Tuple[int, ...]
    right: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError("partition start must be >= 0")
        if self.duration <= 0:
            raise ConfigurationError("partition duration must be > 0")
        if not self.left or not self.right:
            raise ConfigurationError("both partition sides must be non-empty")
        if set(self.left) & set(self.right):
            raise ConfigurationError("partition sides must be disjoint")

    @property
    def heals(self) -> bool:
        return math.isfinite(self.duration)

    @property
    def heal_time(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Crash:
    """A fail-stop node crash at ``at``, recovering after ``downtime``.

    A ``downtime`` of ``math.inf`` means the node never comes back.
    """

    node: int
    at: float
    downtime: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("crash time must be >= 0")
        if self.downtime <= 0:
            raise ConfigurationError("crash downtime must be > 0")

    @property
    def recovers(self) -> bool:
        return math.isfinite(self.downtime)

    @property
    def recovery_time(self) -> float:
        return self.at + self.downtime


# spec keys that set LinkFaults fields directly
_LINK_KEYS = {
    "drop": "drop",
    "dup": "duplicate",
    "duplicate": "duplicate",
    "reorder": "reorder",
    "jitter": "jitter",
}


@dataclass(frozen=True)
class FaultPlan:
    """A complete fault schedule for one experiment.

    Attributes:
        link: probabilistic per-message faults.
        partitions: timed bidirectional cuts.
        crashes: fail-stop node crashes.
        fault_seed: selects the fault randomness stream.  Fault draws come
            from ``rng.spawn(f"faults/{fault_seed}")`` — a forked child of
            the experiment's master source — so they can never perturb
            workload streams (the seeding contract).
    """

    link: LinkFaults = field(default_factory=LinkFaults)
    partitions: Tuple[Partition, ...] = ()
    crashes: Tuple[Crash, ...] = ()
    fault_seed: int = 0

    def __post_init__(self) -> None:
        by_node: Dict[int, list] = {}
        for crash in self.crashes:
            by_node.setdefault(crash.node, []).append(crash)
        for node, crashes in by_node.items():
            crashes.sort(key=lambda c: c.at)
            for earlier, later in zip(crashes, crashes[1:]):
                if later.at < earlier.recovery_time:
                    raise ConfigurationError(
                        f"overlapping crash windows for node {node}"
                    )

    @property
    def empty(self) -> bool:
        return self.link.empty and not self.partitions and not self.crashes

    @property
    def lossless(self) -> bool:
        """True when the plan destroys no information: no drops, every
        partition heals, every crashed node recovers.  A lossless plan must
        leave a convergent strategy convergent — the oracle's yardstick."""
        return (
            self.link.lossless
            and all(p.heals for p in self.partitions)
            and all(c.recovers for c in self.crashes)
        )

    # ------------------------------------------------------------------ #
    # serialisation (canonical: joins the campaign cache key)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """The plan as strict JSON, a walk of its dataclass fields: a
        tuple is a list and a window that never ends is ``"inf"``."""
        return canonical(self)

    # ------------------------------------------------------------------ #
    # CLI spec parsing
    # ------------------------------------------------------------------ #

    @classmethod
    def from_spec(
        cls,
        spec: str,
        num_nodes: int,
        duration: float,
        fault_seed: int = 0,
    ) -> "FaultPlan":
        """Build a concrete plan from a compact CLI spec.

        Syntax: comma-separated ``key=value`` pairs.

        * ``drop`` / ``dup`` / ``reorder`` — per-message probabilities;
        * ``jitter`` — max uniform extra latency in seconds;
        * ``partition=<seconds>|forever`` — one bidirectional cut splitting
          the nodes in half, starting at 25% of the run;
        * ``crash=<seconds>|forever`` — the last node crashes at 25% of the
          run, recovering after the given downtime.

        The timetable is a deterministic function of (spec, num_nodes,
        duration) — two runs of the same sweep cell schedule identical
        events.  Example: ``drop=0.05,partition=2``.

        Tokenisation and value coercion come from :mod:`repro.specs`, the
        grammar shared with ``--placement``.
        """
        if num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        link: Dict[str, float] = {}
        partitions: Tuple[Partition, ...] = ()
        crashes: Tuple[Crash, ...] = ()
        for key, raw in split_spec_items(spec, what="fault"):
            if key in _LINK_KEYS:
                link[_LINK_KEYS[key]] = coerce_float(key, raw)
                continue
            if key in ("partition", "crash"):
                window = coerce_window(key, raw)
                start = duration * 0.25
                if key == "partition":
                    if num_nodes < 2:
                        raise ConfigurationError(
                            "partition needs at least 2 nodes"
                        )
                    half = num_nodes // 2
                    partitions = partitions + (
                        Partition(
                            start=start,
                            duration=window,
                            left=tuple(range(half)),
                            right=tuple(range(half, num_nodes)),
                        ),
                    )
                else:
                    crashes = crashes + (
                        Crash(node=num_nodes - 1, at=start, downtime=window),
                    )
                continue
            raise ConfigurationError(
                f"unknown fault spec key {key!r}; expected one of "
                f"{sorted(_LINK_KEYS)} + ['partition', 'crash']"
            )
        return cls(
            link=LinkFaults(**link),
            partitions=partitions,
            crashes=crashes,
            fault_seed=fault_seed,
        )
