"""Declarative experiments: config in, measured rates out."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Type

from repro.analytic.parameters import ModelParameters
from repro.core.acceptance import (
    AcceptanceCriterion,
    AlwaysAccept,
    IdenticalOutputs,
)
from repro.core.protocol import TwoTierSystem
from repro.exceptions import ConfigurationError
from repro.faults.oracle import evaluate as evaluate_oracle
from repro.faults.plan import FaultPlan
from repro.metrics.counters import Metrics
from repro.metrics.rates import RateSummary, summarize
from repro.placement import Placement
from repro.replication.base import ReplicatedSystem, SystemSpec
from repro.replication.deferred_update import DeferredUpdateSystem
from repro.replication.eager_group import EagerGroupSystem
from repro.replication.eager_master import EagerMasterSystem
from repro.replication.lazy_group import LazyGroupSystem
from repro.replication.lazy_master import LazyMasterSystem
from repro.replication.scar import ScarSystem
from repro.replication.reconciliation import ReconciliationRule
from repro.workload.generator import WorkloadGenerator
from repro.workload.mobile_cycle import MobileCycleDriver
from repro.workload.profiles import uniform_update_profile
from repro.workload.schedule import DisconnectScheduler

# The single strategy registry: every place that needs "name -> system
# class" (the CLI, the campaign runner, the verifier) looks here instead of
# keeping a private map.
STRATEGY_CLASSES: Dict[str, Type[ReplicatedSystem]] = {
    "deferred-update": DeferredUpdateSystem,
    "eager-group": EagerGroupSystem,
    "eager-master": EagerMasterSystem,
    "lazy-group": LazyGroupSystem,
    "lazy-master": LazyMasterSystem,
    "scar": ScarSystem,
    "two-tier": TwoTierSystem,
}

#: strategies whose recorded histories are *expected* to serialize.  The
#: asynchronous strategies interleave replica installs with user reads, so
#: the conflict-graph check is informative but not an invariant for them.
SERIALIZABLE_STRATEGIES = frozenset(
    {"eager-group", "eager-master", "two-tier", "lazy-master"}
)

STRATEGIES = tuple(sorted(STRATEGY_CLASSES))


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation experiment.

    Args:
        strategy: one of :data:`STRATEGIES`.
        params: the Table-2 model parameters.  ``params.disconnect_time > 0``
            adds a disconnect schedule: every node cycles dark/connected
            (lazy-group), or every *mobile* node runs tentative day-cycles
            (two-tier).
        duration: workload generation horizon in virtual seconds.
        seed: master random seed.
        commutative: use increment operations instead of blind writes.
        num_base: base nodes for two-tier (mobiles = params.nodes).
        acceptance: two-tier acceptance criterion (defaults to the strict
            IdenticalOutputs for non-commutative work, AlwaysAccept for
            commutative).
        rule: lazy-group reconciliation rule override.
        warmup: virtual seconds of workload to run *before* measurement
            starts; counters accumulated during warmup are excluded from the
            reported rates, so transients (cold queues, empty lock tables)
            do not bias steady-state measurements.
        record_history: record every read/write into a
            :class:`~repro.verify.history.History` so the schedule can be
            certified afterwards (the result keeps the live system).
        retry_deadlocks: resubmit deadlock victims until they commit.
            ``None`` keeps each strategy's own default (two-tier bases
            retry, everything else surfaces deadlocks as failures).
        propagate_ops: lazy-group operation shipping override.  ``None``
            follows ``commutative``; an explicit value decouples the
            workload semantics from the propagation mode.
        faults: optional :class:`~repro.faults.plan.FaultPlan` executed by a
            :class:`~repro.faults.injector.FaultInjector` during the run.
            Fault randomness comes from a forked seed stream, so two
            configs differing only in ``faults`` offer identical load.
            Every run (faulted or not) ends with an invariant-oracle pass
            whose verdict lands in ``result.extra["oracle_ok"]``.
        tracer: optional :class:`~repro.sim.tracing.Tracer` threaded into
            the system (instrumentation only — excluded from provenance
            dictionaries and cache keys).
        sample_interval: telemetry sampling window in virtual seconds.
            ``0`` (the default) disables sampling entirely; when positive a
            :class:`~repro.obs.samplers.Telemetry` handle is created, probes
            registered by the system and its network/lock-manager/injector
            fire every window, and the resulting series land (serialised) in
            ``result.extra["series"]``.
        telemetry: pre-built telemetry handle to use instead of creating
            one; implies sampling even when ``sample_interval`` is 0 (the
            handle carries its own interval).  Instrumentation only, like
            ``tracer``.
        profiler: optional :class:`~repro.obs.profiler.Profiler` installed
            on the engine for the whole run (wall-clock hot-spot
            bucketing).  Instrumentation only, like ``tracer``.
        placement: optional :class:`~repro.placement.Placement` spec.
            ``None`` means full replication (the paper's model); a partial
            placement (``HashShardPlacement.from_spec("hash:k=3")``) shards
            every node's store to its replica set.  Joins the campaign
            cache key via its canonical ``to_dict``.  For two-tier the
            placement spans the base tier only.  Under every placement
            a store materialises a record on first touch.
    """

    strategy: str
    params: ModelParameters
    duration: float = 100.0
    seed: int = 0
    commutative: bool = False
    num_base: int = 1
    acceptance: Optional[AcceptanceCriterion] = None
    rule: Optional[ReconciliationRule] = None
    warmup: float = 0.0
    record_history: bool = False
    retry_deadlocks: Optional[bool] = None
    propagate_ops: Optional[bool] = None
    faults: Optional[FaultPlan] = None
    tracer: Optional[Any] = None
    sample_interval: float = 0.0
    telemetry: Optional[Any] = None
    profiler: Optional[Any] = None
    placement: Optional[Placement] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.num_base <= 0:
            raise ConfigurationError("num_base must be positive")
        if self.warmup < 0:
            raise ConfigurationError("warmup must be >= 0")
        if self.sample_interval < 0:
            raise ConfigurationError("sample_interval must be >= 0")
        if self.placement is not None and not isinstance(
            self.placement, Placement
        ):
            raise ConfigurationError(
                "placement must be a Placement spec "
                f"(e.g. Placement.from_spec('hash:k=3')), got {self.placement!r}"
            )


@dataclass
class ExperimentResult:
    """Everything measured from one run."""

    config: ExperimentConfig
    metrics: Metrics
    rates: RateSummary
    horizon: float
    divergence: int
    end_time: float
    extra: Dict[str, Any] = field(default_factory=dict)
    # The live system, for post-run inspection (history certification,
    # trace samples).  Dropped when results cross a process boundary.
    system: Optional[ReplicatedSystem] = field(
        default=None, repr=False, compare=False
    )

    @property
    def deadlock_rate(self) -> float:
        return self.rates.deadlock_rate

    @property
    def wait_rate(self) -> float:
        return self.rates.wait_rate

    @property
    def reconciliation_rate(self) -> float:
        return self.rates.reconciliation_rate


def _make_telemetry(config: ExperimentConfig):
    """The telemetry handle this config asks for, or None.

    An explicit ``config.telemetry`` wins; otherwise a fresh handle is
    created when ``sample_interval > 0``.  Imported lazily so the harness
    stays importable even if the obs subsystem is trimmed out.
    """
    if config.telemetry is not None:
        return config.telemetry
    if config.sample_interval > 0:
        from repro.obs.samplers import Telemetry

        return Telemetry(interval=config.sample_interval)
    return None


def build_system(
    config: ExperimentConfig, telemetry: Optional[Any] = None
) -> ReplicatedSystem:
    """Construct the configured replication system (without workload).

    ``telemetry`` overrides the config's handle (``run_experiment`` passes
    the one it created from ``sample_interval``).
    """
    p = config.params
    cls = STRATEGY_CLASSES[config.strategy]
    # two-tier counts p.nodes as mobiles on top of config.num_base base
    # nodes; everyone else runs p.nodes peers
    num_nodes = (
        config.num_base + p.nodes if config.strategy == "two-tier" else p.nodes
    )
    spec = SystemSpec(
        num_nodes=num_nodes,
        db_size=p.db_size,
        action_time=p.action_time,
        message_delay=p.message_delay,
        seed=config.seed,
        # tri-state: None lets two-tier default its base tier to retrying
        # while the peer strategies surface deadlocks
        retry_deadlocks=config.retry_deadlocks,
        record_history=config.record_history,
        tracer=config.tracer,
        telemetry=telemetry if telemetry is not None else _make_telemetry(config),
        placement=config.placement,
        faults=config.faults,
    )
    if config.strategy == "lazy-group":
        propagate = (
            config.commutative
            if config.propagate_ops is None
            else config.propagate_ops
        )
        return cls(spec, rule=config.rule, propagate_ops=propagate)
    if config.strategy == "two-tier":
        return cls(spec, num_base=config.num_base)
    return cls(spec)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build, drive, drain, and measure one experiment.

    The measurement horizon is the workload duration; the engine then runs
    to quiescence so that all lazy propagation lands before convergence is
    checked (rates still divide by the duration, matching the model's
    steady-state quantities).  With ``warmup > 0`` the workload runs for
    ``warmup + duration`` and the counters accumulated before the warmup
    deadline are subtracted from the reported metrics.
    """
    p = config.params
    telemetry = _make_telemetry(config)
    system = build_system(config, telemetry=telemetry)
    if config.profiler is not None:
        config.profiler.install(system.engine)

    # Two-tier always uses state-dependent increment operations: a blind
    # write's outputs are state-independent, which would make the strict
    # IdenticalOutputs acceptance test vacuously true.  The ``commutative``
    # flag then selects the *acceptance semantics*: transactions designed to
    # commute accept any base outcome (zero reconciliations, the paper's
    # claim); non-commuting semantics demand identical outputs, so base
    # rejections track the collision rate.
    profile = uniform_update_profile(
        actions=p.actions,
        db_size=p.db_size,
        commutative=config.commutative or config.strategy == "two-tier",
    )

    generation_horizon = config.warmup + config.duration

    driver: Any = None
    if config.strategy == "two-tier":
        acceptance = config.acceptance
        if acceptance is None:
            acceptance = AlwaysAccept() if config.commutative else IdenticalOutputs()
        if p.disconnect_time > 0:
            driver = MobileCycleDriver(
                system,
                profile,
                tps=p.tps,
                disconnect_time=p.disconnect_time,
                connected_time=p.time_between_disconnects,
                acceptance=acceptance,
            )
            driver.start(generation_horizon)
        else:
            # connected operation: mobiles submit base transactions directly
            driver = WorkloadGenerator(
                system, profile, tps=p.tps, node_ids=list(system.mobiles)
            )
            driver.start(generation_horizon)
    else:
        driver = WorkloadGenerator(system, profile, tps=p.tps)
        driver.start(generation_horizon)
        if p.disconnect_time > 0:
            if config.strategy != "lazy-group":
                raise ConfigurationError(
                    "disconnect schedules apply to lazy-group and two-tier "
                    f"strategies, not {config.strategy!r}"
                )
            scheduler = DisconnectScheduler(
                system,
                disconnect_time=p.disconnect_time,
                connected_time=p.time_between_disconnects or None,
            )
            scheduler.start(generation_horizon)

    if telemetry is not None:
        # bounded tick pre-schedule: a self-rescheduling tick would keep the
        # drain phase (run() with no horizon) alive forever
        telemetry.schedule(system.engine, generation_horizon)

    if config.warmup > 0:
        system.run(until=config.warmup)
        baseline = system.metrics.as_dict()
    else:
        baseline = None
    system.run()

    metrics = system.metrics
    if baseline is not None:
        steady = Metrics()
        for name, value in metrics.as_dict().items():
            steady.bump(name, value - baseline.get(name, 0))
        metrics = steady

    # every run — faulted or not — ends with the invariant-oracle pass, so
    # campaign cells can report correctness alongside their rates
    verdict = evaluate_oracle(
        system,
        plan=config.faults,
        expect_serializable=(
            config.record_history
            and config.strategy in SERIALIZABLE_STRATEGIES
        ),
    )

    # the oracle's convergence check already ran the replica audit (over
    # the base tier for two-tier): reuse its count, and audit here only what
    # it did not cover or a lossy plan excused
    audited = verdict.diverged
    two_tier = isinstance(system, TwoTierSystem)
    if audited is None:
        audited = system.base_divergence() if two_tier else system.divergence()

    extra: Dict[str, Any] = {
        "base_divergence": audited if two_tier else None,
        "oracle_ok": verdict.ok,
        "oracle_expected_convergence": verdict.expected_convergence,
        "oracle_failures": verdict.failures or None,
        "submitted": getattr(driver, "submitted", None),
        "engine_events": system.engine.events_scheduled,
    }
    # max/mean/total report the placement's *nominal* shard sizes (pinned
    # by the partial goldens); the materialized_* fields count records the
    # run actually allocated — only what transactions touched, under full
    # replication too
    resident = system.nominal_resident_counts()
    materialized = system.materialized_counts()
    extra["resident_objects"] = {
        "max": max(resident),
        "mean": sum(resident) / len(resident),
        "total": sum(resident),
        "materialized_max": max(materialized),
        "materialized_total": sum(materialized),
        "db_size": p.db_size,
        "replication_factor": system.placement.replication_factor,
    }
    if system.fault_injector is not None:
        extra["fault_stats"] = system.fault_injector.stats()
    if telemetry is not None:
        # serialised (not the live handle) so results survive the process
        # boundary the campaign pool sends them across
        extra["series"] = telemetry.to_dict()
    if config.tracer is not None and config.tracer.dropped > 0:
        extra["trace_dropped"] = config.tracer.dropped
        print(
            f"warning: tracer ring buffer overflowed; "
            f"{config.tracer.dropped} events dropped (raise Tracer(limit=...))",
            file=sys.stderr,
        )

    return ExperimentResult(
        config=config,
        metrics=metrics,
        rates=summarize(metrics, config.duration),
        horizon=config.duration,
        divergence=system.divergence() if two_tier else audited,
        end_time=system.engine.now,
        extra=extra,
        system=system,
    )
