"""Parallel experiment campaigns: declarative grids of simulation runs.

The paper's evidence is multi-point — Figure 3's scaleup curves, the
eq-12/14/18/19 danger exponents, the section-8 strategy scorecard — so one
credible reproduction needs *grids* of (strategy × parameter × seed) runs,
not single experiments.  This module is the campaign layer on top of
:func:`~repro.harness.experiment.run_experiment`:

* :class:`Campaign` declares the grid (strategies, one swept Table-2
  parameter, seed replicas) and expands it into :class:`RunSpec` cells;
* :func:`run_campaign` fans the cells out over a ``multiprocessing`` worker
  pool with per-run timeouts and crash isolation (a worker that dies marks
  *that cell* failed instead of killing the campaign), or runs them inline
  with ``jobs=0``;
* a content-hash result cache makes re-running an unchanged spec a disk
  hit instead of a re-simulation (simulations are deterministic in their
  configuration, so the config *is* the result's identity);
* :meth:`CampaignResult.aggregate` folds seed replicas into mean ± 95% CI
  per cell and attaches the analytic model's prediction for the rate the
  paper models for that strategy, so every table is measured-vs-model.

Example::

    campaign = Campaign(
        strategies=("lazy-group",),
        base_params=ModelParameters(db_size=500, tps=5),
        axis="nodes", values=(1, 2, 4, 8), seeds=(0, 1, 2, 3, 4),
        duration=30.0,
    )
    outcome = run_campaign(campaign, jobs=4, cache_dir=".repro_cache")
    print(campaign_table(outcome.aggregate()))
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import time
from collections import deque
from multiprocessing import connection as mp_connection
from pathlib import Path
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analytic import eager, lazy_group, lazy_master, two_tier
from repro.analytic.parameters import ModelParameters
from repro.analytic.scaling import safe_fit_exponent
from repro.exceptions import ConfigurationError
from repro.harness.experiment import (
    STRATEGIES,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.harness.stats import RateEstimate, estimate
from repro.metrics.counters import Metrics
from repro.metrics.rates import RateSummary
from repro.metrics.report import format_mean_ci, format_table

# run outcome states
OK = "ok"
FAILED = "failed"
TIMEOUT = "timeout"

# bump when the result payload schema changes, so stale cache entries miss
# (3: sample_interval joined the config hash, extras carry telemetry series;
#  4: engine_queue gauge joined the standard telemetry series;
#  5: placement joined the config hash, extras carry resident_objects;
#  6: model tracks joined the campaign layer — sim payloads are unchanged,
#     but the bump retires caches written before the aggregate/export split
#     so every cached cell replays under the new schema;
#  7: directory placements + lazy stores — resident_objects extras grew
#     materialized_* fields and propagation pruning re-timed partial runs;
#  8: full replicas materialise on first touch too, so materialized_* now
#     means *touched* under every placement.
#  The *config* half of the key needs no bump: it is a walk of the
#  ExperimentConfig dataclass, see harness.export.describe_config)
CACHE_VERSION = 8

#: the selectable analytic tracks the campaign layer can judge cells with
MODEL_TRACKS: Tuple[str, ...] = ("closed-form", "markov")

# The rate the analytic model predicts for each strategy — the "danger"
# curve of cmd_danger, used for the measured-vs-model column and the fit
# exponents (eq 12 / 14 / 19 and the two-tier base rate).
ANALYTIC_REFERENCE: Dict[str, Tuple[str, Callable[[ModelParameters], float], str]] = {
    "eager-group": ("deadlock_rate", eager.total_deadlock_rate,
                    "deadlocks/s (eq 12)"),
    "eager-master": ("deadlock_rate", eager.total_deadlock_rate,
                     "deadlocks/s (eq 12)"),
    "lazy-group": ("reconciliation_rate", lazy_group.reconciliation_rate,
                   "reconciliations/s (eq 14)"),
    "lazy-master": ("deadlock_rate", lazy_master.deadlock_rate,
                    "deadlocks/s (eq 19)"),
    "two-tier": ("deadlock_rate", two_tier.base_deadlock_rate,
                 "base deadlocks/s"),
}


# --------------------------------------------------------------------- #
# grid declaration
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunSpec:
    """One campaign cell × seed: a fully-resolved, hashable experiment."""

    config: ExperimentConfig
    axis: str = "nodes"

    @property
    def axis_value(self) -> float:
        return getattr(self.config.params, self.axis)

    def cell(self) -> Tuple[str, float]:
        """Grouping key for seed replicas of the same grid cell."""
        return (self.config.strategy, self.axis_value)

    def key(self) -> Optional[str]:
        """Content hash identifying this run's result.

        Simulations are deterministic functions of their configuration, so
        the canonical JSON of the config (plus a schema version) addresses
        the cached result.  Instrumentation fields (the tracer) are left
        out by :func:`~repro.harness.export.describe_config`; ``None``
        when the criterion or rule carries a callable, which no hash can
        tell from another — such a run is never cached.
        """
        from repro.harness.export import describe_config

        described, opaque = describe_config(self.config)
        if opaque:
            return None
        canonical = json.dumps(
            {"cache": CACHE_VERSION, "config": described}, sort_keys=True
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        return (
            f"{self.config.strategy} {self.axis}={self.axis_value:g} "
            f"seed={self.config.seed}"
        )


@dataclass(frozen=True)
class Campaign:
    """A declarative grid: strategy × one swept parameter × seed replicas.

    Args:
        strategies: strategy names (see :data:`STRATEGIES`).
        base_params: Table-2 parameters every cell starts from.
        axis: the :class:`ModelParameters` field the campaign sweeps.
        values: axis values; empty means "just the base parameters".
        seeds: independent replica seeds per cell.
        duration / commutative / num_base / warmup: forwarded to every
            :class:`ExperimentConfig`.
        faults: optional fault spec string (``"drop=0.05,partition=2"``,
            see :meth:`~repro.faults.plan.FaultPlan.from_spec`) applied to
            every cell; the concrete plan is materialised per cell because
            partition halves and crash targets depend on the node count.
        fault_seed: selects the fault randomness stream (workload streams
            are unaffected — see the seeding contract in
            :mod:`repro.faults.plan`).
        sample_interval: telemetry sampling window forwarded to every cell
            (0 disables).  Each run's windowed series come back serialised
            in its payload's ``extra["series"]``, surviving the worker
            process boundary; ``repro sweep --series-out`` persists them.
        placement: optional placement spec string (``"hash:k=3"``, see
            :meth:`~repro.placement.Placement.from_spec`) applied to every
            cell.  ``None`` means full replication.  The parsed spec's
            canonical dictionary joins each cell's cache key.
        model: which analytic track judges the cells — ``"closed-form"``
            (the paper's equations, the default) or ``"markov"`` (the
            transaction-state chains of
            :mod:`repro.analytic.markov_strategies`).  The track only
            changes the predicted column and fits, never the simulation,
            so it deliberately stays out of each cell's cache key.
    """

    strategies: Tuple[str, ...]
    base_params: ModelParameters
    axis: str = "nodes"
    values: Tuple[float, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    duration: float = 60.0
    commutative: bool = False
    num_base: int = 1
    warmup: float = 0.0
    faults: Optional[str] = None
    fault_seed: int = 0
    sample_interval: float = 0.0
    placement: Optional[str] = None
    model: str = "closed-form"

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ConfigurationError("campaign needs at least one strategy")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ConfigurationError(
                    f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
                )
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("campaign seeds must be distinct")
        if not hasattr(self.base_params, self.axis):
            raise ConfigurationError(f"unknown model parameter {self.axis!r}")
        if self.model not in MODEL_TRACKS:
            raise ConfigurationError(
                f"unknown model track {self.model!r}; "
                f"expected one of {MODEL_TRACKS}"
            )

    @property
    def total_runs(self) -> int:
        return len(self.strategies) * max(1, len(self.values)) * len(self.seeds)

    def specs(self) -> List[RunSpec]:
        """Expand the grid, in (strategy, value, seed) order."""
        base_value = getattr(self.base_params, self.axis)
        values = self.values or (base_value,)
        integral = isinstance(base_value, int)
        placement = self._parse_placement()
        specs: List[RunSpec] = []
        for strategy in self.strategies:
            for value in values:
                value = int(value) if integral else value
                params = self.base_params.with_(**{self.axis: value})
                plan = self._plan_for(strategy, params)
                for seed in self.seeds:
                    specs.append(
                        RunSpec(
                            config=ExperimentConfig(
                                strategy=strategy,
                                params=params,
                                duration=self.duration,
                                seed=seed,
                                commutative=self.commutative,
                                num_base=self.num_base,
                                warmup=self.warmup,
                                faults=plan,
                                sample_interval=self.sample_interval,
                                placement=placement,
                            ),
                            axis=self.axis,
                        )
                    )
        return specs

    def _parse_placement(self):
        """Parse the placement spec string once for the whole grid."""
        if not self.placement:
            return None
        from repro.placement import Placement

        return Placement.from_spec(self.placement)

    def _plan_for(self, strategy: str, params: ModelParameters):
        """Materialise the fault spec for one cell's actual topology."""
        if not self.faults:
            return None
        from repro.faults.plan import FaultPlan

        num_nodes = params.nodes
        if strategy == "two-tier":
            # network ids cover base tier + mobiles
            num_nodes += self.num_base
        return FaultPlan.from_spec(
            self.faults,
            num_nodes=num_nodes,
            duration=self.duration,
            fault_seed=self.fault_seed,
        )


# --------------------------------------------------------------------- #
# outcomes
# --------------------------------------------------------------------- #


@dataclass
class RunOutcome:
    """What happened to one :class:`RunSpec`."""

    spec: RunSpec
    status: str  # OK | FAILED | TIMEOUT
    payload: Optional[Dict[str, Any]] = None  # result_to_dict() shape
    error: str = ""
    cached: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK

    def rates(self) -> Dict[str, float]:
        if not self.ok:
            return {}
        return dict(self.payload["rates"])

    def oracle_ok(self) -> Optional[bool]:
        """The run's invariant-oracle verdict (None for failed or pre-oracle
        cached payloads)."""
        if not self.ok:
            return None
        return self.payload.get("extra", {}).get("oracle_ok")

    def to_result(self) -> ExperimentResult:
        """Rebuild a full :class:`ExperimentResult` from the payload.

        The live system does not cross process or disk boundaries; the
        reconstructed result carries ``system=None``.
        """
        if not self.ok:
            raise ConfigurationError(
                f"no result for {self.spec.label()}: {self.status} {self.error}"
            )
        return result_from_dict(self.spec.config, self.payload)


def result_from_dict(config: ExperimentConfig,
                     payload: Dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`~repro.harness.export.result_to_dict`."""
    metrics = Metrics()
    for name, value in payload["counters"].items():
        metrics.bump(name, value)
    rates = RateSummary(**payload["rates"])
    return ExperimentResult(
        config=config,
        metrics=metrics,
        rates=rates,
        horizon=rates.horizon,
        divergence=payload["divergence"],
        end_time=payload["end_time"],
        extra=dict(payload.get("extra", {})),
    )


# --------------------------------------------------------------------- #
# result cache
# --------------------------------------------------------------------- #


class ResultCache:
    """Content-addressed result store: one JSON file per spec hash."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def path(self, spec: RunSpec) -> Optional[Path]:
        """Where ``spec``'s result lives; None for a spec with no key."""
        key = spec.key()
        return None if key is None else self.root / f"{key}.json"

    def get(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        target = self.path(spec)
        if target is None:
            return None
        try:
            with target.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if entry.get("cache") != CACHE_VERSION:
            return None
        return entry.get("payload")

    def put(self, spec: RunSpec, payload: Dict[str, Any]) -> None:
        target = self.path(spec)
        if target is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        # write-then-rename so concurrent campaigns never read a torn file
        tmp = target.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump({"cache": CACHE_VERSION, "payload": payload}, fh,
                      sort_keys=True)
        tmp.replace(target)


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #


def _campaign_worker(config: ExperimentConfig, conn) -> None:
    """Child-process entry: run one experiment, ship a plain dict back."""
    from repro.harness.export import result_to_dict

    try:
        payload = result_to_dict(run_experiment(config))
        conn.send((OK, payload))
    except BaseException as exc:  # isolate *any* worker failure
        try:
            conn.send((FAILED, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class CampaignResult:
    """Every outcome of one campaign execution, plus provenance."""

    outcomes: List[RunOutcome]
    elapsed: float
    jobs: int
    campaign: Optional[Campaign] = None

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def ok_count(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failures(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def cache_misses(self) -> int:
        return self.total - self.cache_hits

    def results(self) -> List[ExperimentResult]:
        """Reconstructed results of every successful run."""
        return [o.to_result() for o in self.outcomes if o.ok]

    def aggregate(self, model: Optional[str] = None) -> List["CellStats"]:
        """Cell summaries under ``model`` (default: the campaign's track)."""
        if model is None:
            model = (self.campaign.model if self.campaign is not None
                     else "closed-form")
        return aggregate(self.outcomes, model=model)

    def fits(self, model: Optional[str] = None) -> List["ExponentFit"]:
        return fit_exponents(self.aggregate(model=model))

    def describe(self) -> str:
        """One status line: runs, failures, cache economics, wall clock."""
        return (
            f"{self.total} runs ({self.ok_count} ok, "
            f"{self.total - self.ok_count} failed) | "
            f"cache: {self.cache_hits}/{self.total} hits | "
            f"wall {self.elapsed:.2f}s with jobs={self.jobs}"
        )


def run_campaign(
    campaign: Union[Campaign, Iterable[RunSpec]],
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[RunOutcome, int, int], None]] = None,
) -> CampaignResult:
    """Execute a campaign (or an explicit spec list).

    Args:
        jobs: worker processes.  ``jobs >= 1`` runs every cell in its own
            ``multiprocessing`` process (crash isolation + timeouts, at
            most ``jobs`` concurrently); ``jobs = 0`` runs inline in this
            process (deterministic debugging, no isolation).
        cache_dir: content-hash result cache directory (None disables).
        timeout: per-run wall-clock limit in seconds; an overrunning
            worker is terminated and its cell marked ``timeout``.
        progress: callback ``(outcome, done, total)`` fired per completion.
    """
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    source = campaign if isinstance(campaign, Campaign) else None
    specs = campaign.specs() if source is not None else list(campaign)
    cache = ResultCache(cache_dir) if cache_dir else None
    started = time.monotonic()

    outcomes: Dict[int, RunOutcome] = {}
    total = len(specs)

    def finish(index: int, outcome: RunOutcome) -> None:
        outcomes[index] = outcome
        if outcome.ok and not outcome.cached and cache is not None:
            cache.put(outcome.spec, outcome.payload)
        if progress is not None:
            progress(outcome, len(outcomes), total)

    pending = deque()
    for index, spec in enumerate(specs):
        payload = cache.get(spec) if cache is not None else None
        if payload is not None:
            finish(index, RunOutcome(spec, OK, payload, cached=True))
        else:
            pending.append((index, spec))

    if jobs == 0:
        for index, spec in pending:
            t0 = time.monotonic()
            try:
                from repro.harness.export import result_to_dict

                payload = result_to_dict(run_experiment(spec.config))
                outcome = RunOutcome(spec, OK, payload,
                                     elapsed=time.monotonic() - t0)
            except Exception as exc:
                outcome = RunOutcome(spec, FAILED,
                                     error=f"{type(exc).__name__}: {exc}",
                                     elapsed=time.monotonic() - t0)
            finish(index, outcome)
    else:
        _run_pool(pending, jobs, timeout, finish)

    return CampaignResult(
        outcomes=[outcomes[i] for i in range(total)],
        elapsed=time.monotonic() - started,
        jobs=jobs,
        campaign=source,
    )


def _run_pool(pending, jobs: int, timeout: Optional[float], finish) -> None:
    """Keep up to ``jobs`` single-run worker processes alive until done."""
    ctx = mp.get_context()
    running: Dict[Any, Tuple[int, RunSpec, Any, float]] = {}
    try:
        while pending or running:
            while pending and len(running) < jobs:
                index, spec = pending.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_campaign_worker,
                    args=(spec.config, child_conn),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                running[parent_conn] = (index, spec, proc, time.monotonic())

            ready = mp_connection.wait(list(running), timeout=0.05)
            now = time.monotonic()
            for conn in ready:
                index, spec, proc, t0 = running.pop(conn)
                try:
                    status, body = conn.recv()
                except (EOFError, OSError):
                    # the worker died without reporting (segfault, OOM kill,
                    # os._exit): fail this cell, keep the campaign alive
                    proc.join()
                    status, body = FAILED, (
                        f"worker crashed (exit code {proc.exitcode})"
                    )
                conn.close()
                proc.join()
                elapsed = now - t0
                if status == OK:
                    finish(index, RunOutcome(spec, OK, body, elapsed=elapsed))
                else:
                    finish(index, RunOutcome(spec, FAILED, error=body,
                                             elapsed=elapsed))

            if timeout is not None:
                for conn in [
                    c for c, (_, _, _, t0) in running.items()
                    if now - t0 > timeout
                ]:
                    index, spec, proc, t0 = running.pop(conn)
                    proc.terminate()
                    proc.join()
                    conn.close()
                    finish(index, RunOutcome(
                        spec, TIMEOUT,
                        error=f"exceeded {timeout:g}s wall-clock limit",
                        elapsed=now - t0,
                    ))
    finally:
        for conn, (_, _, proc, _) in running.items():
            proc.terminate()
            proc.join()
            conn.close()


# --------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CellStats:
    """Seed replicas of one grid cell, folded into mean ± 95% CI."""

    strategy: str
    axis: str
    value: float
    params: ModelParameters
    n: int
    failures: int
    rates: Dict[str, RateEstimate]
    reference_rate: Optional[str]
    analytic: Optional[float]
    # conjunction of the member runs' invariant-oracle verdicts (None when
    # no member reported one, e.g. every replica failed outright)
    oracle_ok: Optional[bool] = None

    @property
    def measured(self) -> Optional[float]:
        if self.reference_rate is None:
            return None
        est = self.rates.get(self.reference_rate)
        return None if est is None else est.mean

    @property
    def model_ratio(self) -> Optional[float]:
        """Simulated / analytic for the modelled rate (None when undefined)."""
        if not self.analytic or self.measured is None:
            return None
        return self.measured / self.analytic


def _estimate(name: str, samples: Sequence[float]) -> RateEstimate:
    if len(samples) >= 2:
        return estimate(name, samples)
    value = float(samples[0])
    return RateEstimate(name=name, samples=(value,), mean=value, std=0.0,
                        ci95_half_width=0.0)


def model_reference(
    strategy: str,
    params: ModelParameters,
    k: Optional[int] = None,
    model: str = "closed-form",
) -> Tuple[Optional[str], Optional[float]]:
    """``(rate name, predicted value)`` for one cell under a model track.

    ``closed-form`` uses the paper's equations (with the partial-model
    ``k/N`` override under a placement); ``markov`` solves the strategy's
    transaction-state chain.  ``(None, None)`` when the track does not
    model the strategy's danger rate.
    """
    if model not in MODEL_TRACKS:
        raise ConfigurationError(
            f"unknown model track {model!r}; expected one of {MODEL_TRACKS}"
        )
    if model == "markov":
        from repro.analytic import markov_strategies

        ref = markov_strategies.MARKOV_REFERENCE.get(strategy)
        if ref is None:
            return None, None
        return ref[0], markov_strategies.reference_rate(strategy, params, k)
    reference = ANALYTIC_REFERENCE.get(strategy)
    if reference is None:
        return None, None
    analytic = reference[1](params)
    if k is not None:
        # partial placement: the danger laws soften by k/N — use the
        # partial model's prediction where the rate depends on fan-out
        from repro.analytic import partial as partial_model

        override = partial_model.reference_rate(strategy, params, k)
        if override is not None:
            analytic = override
    return reference[0], analytic


def aggregate(
    outcomes: Sequence[RunOutcome], model: str = "closed-form"
) -> List[CellStats]:
    """Group outcomes by (strategy, axis value); summarise each rate.

    ``model`` selects the analytic track attached to each cell's
    ``analytic`` column (see :func:`model_reference`).
    """
    order: List[Tuple[str, float]] = []
    grouped: Dict[Tuple[str, float], List[RunOutcome]] = {}
    for outcome in outcomes:
        cell = outcome.spec.cell()
        if cell not in grouped:
            grouped[cell] = []
            order.append(cell)
        grouped[cell].append(outcome)

    cells: List[CellStats] = []
    for cell in order:
        members = grouped[cell]
        spec = members[0].spec
        samples: Dict[str, List[float]] = {}
        for outcome in members:
            for name, value in outcome.rates().items():
                if name == "horizon":
                    continue
                samples.setdefault(name, []).append(value)
        placement = getattr(spec.config, "placement", None)
        k = getattr(placement, "replication_factor", None)
        rate_name, analytic = model_reference(
            spec.config.strategy, spec.config.params, k, model
        )
        verdicts = [v for v in (o.oracle_ok() for o in members)
                    if v is not None]
        cells.append(
            CellStats(
                strategy=spec.config.strategy,
                axis=spec.axis,
                value=spec.axis_value,
                params=spec.config.params,
                n=sum(1 for o in members if o.ok),
                failures=sum(1 for o in members if not o.ok),
                rates={name: _estimate(name, values)
                       for name, values in samples.items()},
                reference_rate=rate_name,
                analytic=analytic,
                oracle_ok=all(verdicts) if verdicts else None,
            )
        )
    return cells


@dataclass(frozen=True)
class ExponentFit:
    """Measured vs analytic growth order of one strategy's danger rate."""

    strategy: str
    rate: str
    measured: Optional[float]
    analytic: Optional[float]

    def describe(self) -> str:
        measured = "n/a" if self.measured is None else f"N^{self.measured:.1f}"
        analytic = "n/a" if self.analytic is None else f"N^{self.analytic:.1f}"
        return (f"{self.strategy} {self.rate}: measured {measured}, "
                f"analytic {analytic}")


def fit_exponents(cells: Sequence[CellStats]) -> List[ExponentFit]:
    """Fit the modelled rate's growth order along the axis, per strategy.

    Model-track agnostic: each cell already carries the reference rate and
    prediction its campaign's track assigned (see :func:`aggregate`).
    """
    by_strategy: Dict[str, List[CellStats]] = {}
    for cell in cells:
        by_strategy.setdefault(cell.strategy, []).append(cell)
    fits: List[ExponentFit] = []
    for strategy, group in by_strategy.items():
        rate_name = group[0].reference_rate
        if rate_name is None or len(group) < 2:
            continue
        xs = [cell.value for cell in group]
        measured = [cell.measured or 0.0 for cell in group]
        analytic = [cell.analytic or 0.0 for cell in group]
        fits.append(
            ExponentFit(
                strategy=strategy,
                rate=rate_name,
                measured=safe_fit_exponent(xs, measured),
                analytic=safe_fit_exponent(xs, analytic),
            )
        )
    return fits


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #


def campaign_table(cells: Sequence[CellStats], title: str = "") -> str:
    """The campaign scorecard: one row per cell, mean ± CI, model delta."""
    rows: List[List[Any]] = []
    for cell in cells:
        commit = cell.rates.get("commit_rate")
        measured = (cell.rates.get(cell.reference_rate)
                    if cell.reference_rate else None)
        rows.append([
            cell.strategy,
            cell.value,
            cell.n,
            cell.failures,
            "-" if commit is None else format_mean_ci(
                commit.mean, commit.ci95_half_width),
            cell.reference_rate or "-",
            "-" if measured is None else format_mean_ci(
                measured.mean, measured.ci95_half_width),
            "-" if cell.analytic is None else cell.analytic,
            "-" if cell.model_ratio is None else f"{cell.model_ratio:.2f}",
            "-" if cell.oracle_ok is None else ("ok" if cell.oracle_ok
                                                else "FAIL"),
        ])
    axis = cells[0].axis if cells else "value"
    return format_table(
        ["strategy", axis, "n", "fail", "commit/s (±95% CI)",
         "modelled rate", "measured (±95% CI)", "analytic", "sim/model",
         "oracle"],
        rows,
        title=title,
    )
