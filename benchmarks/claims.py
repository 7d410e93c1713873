"""The paper's claims as one table: each row a sweep judged against the model.

A :class:`Claim` names the paper's statement, the runs that measure it
(strategies × parameter points × seeds, expanded by
:meth:`~repro.harness.campaign.Campaign.specs`), the metric read from each
run, an optional closed form from :mod:`repro.analytic` and the checks the
measured series must pass.  A row with no strategy checks its closed form
alone.  :func:`measure` runs the specs of every row it is given in one
campaign, a run that two rows share only once, and folds each row's runs
through :func:`~repro.harness.campaign.aggregate` and
:func:`~repro.harness.campaign.fit_exponents`; ``test_bench_claims.py``
prints and judges one row per test.

Calibrated simulation regimes (chosen so rare events are measurable on a
laptop in seconds; see EXPERIMENTS.md for the regime discussion):

* ``EAGER_REGIME`` — moderate contention; eager deadlock growth is cleanly
  super-quadratic.
* ``MASTER_REGIME`` — high contention, so that lazy-master deadlocks (a
  rare² event at an N² rate) actually occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analytic import (
    ModelParameters,
    dilation,
    eager,
    lazy_group,
    lazy_master,
    single_node,
)
from repro.analytic.scaling import fit_exponent, sweep
from repro.harness.campaign import (
    Campaign,
    RunOutcome,
    RunSpec,
    aggregate,
    fit_exponents,
    run_campaign,
)
from repro.harness.stats import RateEstimate, estimate
from repro.harness.strategies import STRATEGIES
from repro.metrics.counters import Metrics
from repro.metrics.report import format_mean_ci, format_table

EAGER_REGIME = ModelParameters(db_size=80, nodes=1, tps=4, actions=3,
                               action_time=0.01)
MASTER_REGIME = ModelParameters(db_size=30, nodes=1, tps=6, actions=3,
                                action_time=0.01)
NODE_SWEEP = (2, 3, 4, 6)

#: a check's reference to the row's closed form
MODEL = "model"

COUNTERS = Metrics.COUNTER_NAMES | Metrics.KNOWN_EXTRAS


@dataclass(frozen=True)
class Series:
    """One strategy's points along a row's axis, or the closed form's.

    ``cells`` fold each point's seeds into mean ± 95 % CI; ``model`` is
    the closed form at each point's parameters (empty without one).
    """

    label: str
    xs: Tuple[float, ...]
    cells: Tuple[RateEstimate, ...]
    model: Tuple[float, ...] = ()
    exponent: Optional[float] = None
    model_exponent: Optional[float] = None

    def growth(self) -> Optional[float]:
        """last / first of the means; None when the first is not above 0."""
        first, last = self.cells[0].mean, self.cells[-1].mean
        return last / first if first > 0 else None


Lookup = Callable[[str], Series]
#: what a check read off a series, and whether that passes
Verdict = Tuple[str, bool]


def _g(*values: Optional[float]) -> str:
    return ", ".join("-" if v is None else f"{v:.4g}" for v in values)


def _ratio(value: float, by: float) -> float:
    """``value / by``; over zero, inf for a positive value and nan (which
    no band contains) otherwise."""
    return value / by if by else (math.inf if value > 0 else math.nan)


@dataclass(frozen=True)
class Check:
    #: the strategies the check judges; empty: every series of the row
    of: Tuple[str, ...] = field(default=(), kw_only=True)

    def judge(self, series: Series, lookup: Lookup) -> Verdict:
        """What the check reads off ``series`` and whether it passes.
        ``lookup`` resolves a strategy of the same row, or another row's
        id to its series of the same strategy (or its only series)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponent(Check):
    """The least-squares exponent along the axis is ``expected`` ± ``tol``;
    :data:`MODEL` expects the closed form's exponent over the same points."""

    expected: Union[float, str]
    tol: float

    def judge(self, series, lookup):
        expected = (series.model_exponent if self.expected == MODEL
                    else self.expected)
        fitted = series.exponent
        ok = (fitted is not None and expected is not None
              and abs(fitted - expected) <= self.tol)
        return f"exponent {_g(fitted)} within {self.tol} of {_g(expected)}", ok


@dataclass(frozen=True)
class Within(Check):
    """Every point lies strictly between ``lo`` and ``hi``: its mean, or
    with ``ci`` its whole 95 % CI; divided by the closed form's value
    (``per=MODEL``) or by another series' mean at the same position."""

    lo: float = -math.inf
    hi: float = math.inf
    per: Optional[str] = None
    ci: bool = False

    def judge(self, series, lookup):
        values = []
        for i, cell in enumerate(series.cells):
            point = (cell.lo, cell.hi) if self.ci else (cell.mean,)
            if self.per is not None:
                by = (series.model[i] if self.per == MODEL
                      else lookup(self.per).cells[i].mean)
                point = tuple(_ratio(v, by) for v in point)
            values += point
        what = "95 % CI" if self.ci else "mean"
        if self.per is not None:
            what += f" / {self.per}"
        return (f"{what} {_g(*values)} inside ({self.lo}, {self.hi})",
                all(self.lo < v < self.hi for v in values))


@dataclass(frozen=True)
class Equal(Check):
    """Every seed's value at every point equals ``value`` exactly."""

    value: float

    def judge(self, series, lookup):
        values = [v for cell in series.cells for v in cell.samples]
        return (f"every seed's value {_g(*values)} == {self.value}",
                all(v == self.value for v in values))


@dataclass(frozen=True)
class Monotone(Check):
    """The means never fall along the axis."""

    def judge(self, series, lookup):
        means = [cell.mean for cell in series.cells]
        return (f"means {_g(*means)} never fall",
                all(later >= earlier for earlier, later in zip(means, means[1:])))


@dataclass(frozen=True)
class Growth(Check):
    """From the first point to the last the series grows by more than
    ``factor``: last mean > ``factor`` × first mean, the first above 0.

    With ``than`` the growth must exceed ``factor`` × that series' growth.
    With ``per_seed`` each seed's own last / first ratio is taken (seeds
    whose first value is above 0, at least three of them) and their mean,
    or with ``ci`` their 95 % CI's low end, must exceed ``factor``.
    """

    factor: float
    than: Optional[str] = None
    per_seed: bool = False
    ci: bool = False

    def judge(self, series, lookup):
        what = "growth"
        if self.per_seed:
            ratios = [last / first for first, last in
                      zip(series.cells[0].samples, series.cells[-1].samples)
                      if first > 0]
            if len(ratios) < 3:
                return f"only {len(ratios)} seeds start above zero", False
            spread = estimate("growth", ratios)
            grown = spread.lo if self.ci else spread.mean
            what = (f"per-seed growth {spread.format()}, "
                    + ("its low end" if self.ci else "its mean"))
        else:
            grown = series.growth()
        bound = self.factor
        if self.than is not None:
            other = lookup(self.than).growth()
            bound = None if other is None else bound * other
            what += f" ({self.factor} x {self.than}'s {_g(other)})"
        ok = grown is not None and bound is not None and grown > bound
        return f"{what} {_g(grown)} > {_g(bound)}", ok


@dataclass(frozen=True)
class Claim:
    """One row: a statement of the paper and the sweep that tests it.

    ``values`` sweep ``axis`` from ``base``; ``points`` instead lists
    whole parameter points (``axis`` then names their x coordinate).
    ``metric`` is a :class:`~repro.metrics.rates.RateSummary` rate, a
    :class:`~repro.metrics.counters.Metrics` counter or ``"divergence"``.
    ``model`` is a closed form evaluated at each point's parameters; a row
    with no strategy needs one.
    """

    id: str
    paper: str
    base: ModelParameters
    checks: Tuple[Check, ...]
    strategies: Tuple[str, ...] = ()
    axis: str = "nodes"
    values: Tuple[float, ...] = ()
    points: Tuple[Dict[str, float], ...] = ()
    seeds: Tuple[int, ...] = (1,)
    duration: float = 100.0
    commutative: bool = False
    metric: str = ""
    model: Optional[Callable[[ModelParameters], float]] = None

    def references(self) -> List[str]:
        """Other rows whose series this row's checks compare against."""
        names = {getattr(check, "than", None) for check in self.checks}
        names |= {getattr(check, "per", None) for check in self.checks}
        return [n for n in names
                if n not in (None, MODEL) and n not in self.strategies]

    def specs(self) -> List[RunSpec]:
        if not self.strategies:
            return []
        bases = ([self.base.with_(**point) for point in self.points]
                 or [self.base])
        return [
            spec
            for base in bases
            for spec in Campaign(
                strategies=self.strategies, base_params=base, axis=self.axis,
                values=() if self.points else self.values, seeds=self.seeds,
                duration=self.duration, commutative=self.commutative,
            ).specs()
        ]

    def series(self, outcomes: Sequence[RunOutcome]) -> Dict[str, Series]:
        """This row's series from its runs' outcomes, in spec order."""
        if not self.strategies:
            curve = sweep(self.model, self.base, self.axis, self.values)
            fitted = fit_exponent(curve.xs, curve.ys)
            return {MODEL: Series(
                MODEL, curve.xs, tuple(_estimate(MODEL, [y]) for y in curve.ys),
                curve.ys, fitted, fitted,
            )}
        cells = []
        for cell in aggregate(outcomes):
            folded = cell.rates.get(self.metric)
            if folded is None:  # a counter: aggregate folds rates only
                folded = _estimate(self.metric, [
                    _sample(o.payload, self.metric) for o in outcomes
                    if o.spec.cell() == (cell.strategy, cell.value)
                ])
            cells.append(replace(
                cell,
                rates={self.metric: folded},
                reference_rate=self.metric,
                analytic=self.model(cell.params) if self.model else None,
            ))
        fits = {}
        if any(isinstance(check, Exponent) for check in self.checks):
            fits = {fit.strategy: fit for fit in fit_exponents(cells)}
        out = {}
        for strategy in self.strategies:
            mine = [cell for cell in cells if cell.strategy == strategy]
            fit = fits.get(strategy)
            out[strategy] = Series(
                strategy,
                tuple(cell.value for cell in mine),
                tuple(cell.rates[self.metric] for cell in mine),
                tuple(cell.analytic for cell in mine) if self.model else (),
                fit.measured if fit else None,
                fit.analytic if fit else None,
            )
        return out


def _estimate(name: str, samples: Sequence[float]) -> RateEstimate:
    if len(samples) > 1:
        return estimate(name, samples)
    return RateEstimate(name, tuple(samples), samples[0], 0.0, 0.0)


def _sample(payload, metric: str) -> float:
    """One run's counter or divergence (an extra counter never bumped is 0)."""
    if metric in COUNTERS:
        return payload["counters"].get(metric, 0)
    return payload[metric]


def measure(claims: Sequence[Claim],
            jobs: int) -> Dict[str, Dict[str, Series]]:
    """Run ``claims`` and the rows they compare against as one campaign.

    Returns each row's series by row id.  Raises when a run fails or the
    oracle refuses one: no claim is judged on a partial sweep, or on runs
    that broke the strategy's own guarantee (fault-free, that includes
    convergence of every replica it keeps, two-tier's base tier too).
    """
    by_id = {claim.id: claim for claim in CLAIMS}
    rows = {claim.id: claim for claim in claims}
    pending = list(rows.values())
    while pending:
        for name in pending.pop().references():
            if name not in rows:
                rows[name] = by_id[name]
                pending.append(rows[name])
    unique: Dict[str, RunSpec] = {}
    for claim in rows.values():
        for spec in claim.specs():
            unique.setdefault(spec.key(), spec)
    outcome = run_campaign(list(unique.values()), jobs=jobs)
    refused = [o for o in outcome.outcomes if not o.oracle_ok()]
    if refused:
        raise RuntimeError("\n".join(
            f"{o.spec.label()}: {o.status} {o.error or 'oracle refused'}"
            for o in refused
        ))
    done = dict(zip(unique, outcome.outcomes))
    return {
        claim.id: claim.series([replace(done[spec.key()], spec=spec)
                                for spec in claim.specs()])
        for claim in rows.values()
    }


def judge(claim: Claim,
          measured: Dict[str, Dict[str, Series]]) -> List[Verdict]:
    """Every check of ``claim`` on each series it judges."""
    own = measured[claim.id]

    def lookup(name: str, label: str) -> Series:
        if name in own:
            return own[name]
        other = measured[name]
        return other[label] if label in other else next(iter(other.values()))

    verdicts = []
    for check in claim.checks:
        for series in own.values():
            if not check.of or series.label in check.of:
                reading, ok = check.judge(
                    series, partial(lookup, label=series.label))
                verdicts.append(
                    (f"{series.label}: {type(check).__name__}: {reading}", ok)
                )
    return verdicts


def render(claim: Claim, series: Dict[str, Series]) -> str:
    """The row as a table: one column per strategy, then the model."""
    first = next(iter(series.values()))
    headers, columns = [claim.axis], [first.xs]
    if first.label != MODEL:
        for s in series.values():
            headers.append(f"{s.label} {claim.metric}")
            columns.append([format_mean_ci(c.mean, c.ci95_half_width)
                            for c in s.cells])
    if claim.model is not None:
        module = claim.model.__module__.rsplit(".", 1)[-1]
        headers.append(f"{module}.{claim.model.__name__}")
        columns.append(first.model)
        if len(series) == 1 and first.label != MODEL:
            headers.append("sim/model")
            columns.append([c.mean / m if m else "-"
                            for c, m in zip(first.cells, first.model)])
    lines = [format_table(headers, zip(*columns),
                          title=f"{claim.id} — {claim.paper}")]
    lines += [f"{s.label}: exponent {s.exponent:.2f}"
              + ("" if s.label == MODEL else f" (model {s.model_exponent:.2f})")
              for s in series.values() if s.exponent is not None]
    return "\n".join(lines)


# ------------------------------------------------------------------ #
# the table
# ------------------------------------------------------------------ #

#: closed forms: at least as tight as pytest.approx's default
EXACT = 1e-6
EQ2 = ModelParameters(db_size=100, nodes=1, tps=10, actions=4,
                      action_time=0.01)
EQ13 = ModelParameters(db_size=40, nodes=1, tps=6, actions=3,
                       action_time=0.01)
MOBILE = ModelParameters(db_size=400, nodes=1, tps=2, actions=2,
                         action_time=0.001, disconnect_time=5.0)
FIGURE3 = ModelParameters(db_size=100, nodes=1, tps=1, actions=2,
                          action_time=0.0)
DELAY = ModelParameters(db_size=80, nodes=4, tps=4, actions=3,
                        action_time=0.01)
X1 = ModelParameters(db_size=100, nodes=1, tps=2, actions=2,
                     action_time=0.001, disconnect_time=4.0)
X3 = ModelParameters(db_size=60, nodes=4, tps=3, actions=3,
                     action_time=0.005)

CLAIMS: Tuple[Claim, ...] = (
    # -- section 3, one node: equations 1-5 -------------------------- #
    Claim("eq2-waits", "eq 2: a node's wait rate is TPS x PW",
          EQ2, strategies=("eager-group",), seeds=(3,), duration=500.0,
          metric="wait_rate", model=single_node.node_wait_rate,
          checks=(Within(0.0, 2.0, per=MODEL),)),
    Claim("eq5-deadlocks", "eq 5: deadlocks are rare² (one 500 s seed)",
          EQ2, strategies=("eager-group",), seeds=(3,), duration=500.0,
          metric="deadlocks", checks=(Within(hi=20),)),
    Claim("eq5-pooled",
          "eq 5 over ten seeds: the DES deadlocks at a steady fraction of "
          "eq 5, cause not yet derived",
          EQ2, strategies=("eager-group",), seeds=tuple(range(1, 11)),
          duration=500.0, metric="deadlock_rate",
          model=single_node.node_deadlock_rate,
          checks=(Within(0.10, 0.40, per=MODEL),)),
    Claim("eq5-actions", "eq 5 is quintic in Actions", EQ2, axis="actions",
          values=(2, 4, 8), model=single_node.node_deadlock_rate,
          checks=(Exponent(5.0, EXACT),)),
    Claim("eq5-tps", "eq 5 is quadratic in TPS", EQ2, axis="tps",
          values=(5, 10, 20), model=single_node.node_deadlock_rate,
          checks=(Exponent(2.0, EXACT),)),
    Claim("eq2-db-size", "eq 2's wait probability is inverse in DB_Size",
          EQ2, axis="db_size", values=(100, 1000, 10_000),
          model=single_node.wait_probability,
          checks=(Exponent(-1.0, EXACT),)),
    # -- eager replication: equations 9-13 -------------------------- #
    Claim("eq12-deadlocks",
          'eq 12: "a ten-fold increase in nodes ... gives a thousand fold '
          'increase in deadlocks"',
          EAGER_REGIME, strategies=("eager-group",), values=NODE_SWEEP,
          seeds=(1,), duration=200.0, metric="deadlock_rate",
          model=eager.total_deadlock_rate,
          checks=(Exponent(3.0, 1.0), Growth(8.0))),
    Claim("eq10-waits", "eq 10: eager waits grow as N³",
          EAGER_REGIME, strategies=("eager-group",), values=NODE_SWEEP,
          seeds=(2,), duration=200.0, metric="wait_rate",
          model=eager.total_wait_rate, checks=(Exponent(3.0, 1.0),)),
    # the dilated curve's exponent over NODE_SWEEP is 3.90; within 0.55 of
    # it the measured exponent is above 3.3 and never more than 0.3 farther
    # from the dilated exponent than from the cubic
    Claim("eq12-dilated",
          "eq 12 with M/M/1 time dilation (an extension, not the paper's)",
          EAGER_REGIME, strategies=("eager-group",), values=NODE_SWEEP,
          seeds=(0, 1), duration=200.0, metric="deadlock_rate",
          model=dilation.dilated_eager_deadlock_rate,
          checks=(Exponent(MODEL, 0.55),)),
    # 2 -> 6 nodes: quadratic growth is 9x, cubic 27x (21.6 = 0.8 x 27)
    Claim("eq12-confidence",
          "eq 12 over five seeds: growth from 2 to 6 nodes excludes N²",
          EAGER_REGIME, strategies=("eager-group",), values=(2, 6),
          seeds=(0, 1, 2, 3, 4), duration=150.0, metric="deadlock_rate",
          model=eager.total_deadlock_rate,
          checks=(Growth(21.6, per_seed=True),
                  Growth(9.0, per_seed=True, ci=True),
                  Within(lo=0.0, ci=True))),
    Claim("eq13-fixed-deadlocks", "eq 12 at a fixed DB_Size (three seeds)",
          EQ13, strategies=("eager-group",), values=NODE_SWEEP,
          seeds=(0, 1, 2), duration=200.0, metric="deadlock_rate",
          model=eager.total_deadlock_rate,
          checks=(Growth(3.0, than="eq13-scaled-deadlocks"),)),
    Claim("eq13-fixed-waits", "eq 10 at a fixed DB_Size: N³",
          EQ13, strategies=("eager-group",), values=NODE_SWEEP,
          seeds=(0, 1, 2), duration=200.0, metric="wait_rate",
          model=eager.total_wait_rate, checks=(Exponent(3.0, 0.5),)),
    Claim("eq13-scaled-deadlocks",
          'eq 13: with DB_Size ∝ Nodes "a ten-fold growth in the number of '
          'nodes creates only a ten-fold growth in the deadlock rate"',
          EQ13, strategies=("eager-group",),
          points=tuple({"nodes": n, "db_size": 40 * n} for n in NODE_SWEEP),
          seeds=(0, 1, 2), duration=200.0, metric="deadlock_rate",
          model=eager.total_deadlock_rate,
          checks=(Within(hi=1.0, per="eq13-fixed-deadlocks"),)),
    Claim("eq13-scaled-waits", "eq 10 with DB_Size ∝ Nodes: N²",
          EQ13, strategies=("eager-group",),
          points=tuple({"nodes": n, "db_size": 40 * n} for n in NODE_SWEEP),
          seeds=(0, 1, 2), duration=200.0, metric="wait_rate",
          model=eager.total_wait_rate, checks=(Exponent(2.0, 0.5),)),
    # -- lazy replication: equations 14-19 -------------------------- #
    Claim("eq14",
          "eq 14: lazy-group reconciliations follow eq 10, cubic in N",
          EAGER_REGIME.with_(message_delay=0.05), strategies=("lazy-group",),
          values=NODE_SWEEP, seeds=(1,), duration=200.0,
          metric="reconciliation_rate", model=lazy_group.reconciliation_rate,
          checks=(Exponent(3.0, 0.75), Growth(20.0))),
    # the DES counts a collision at every replica it reaches, one factor
    # of N above eq 18's node-cycles: N² per node is N³ in all
    Claim("eq18-nodes",
          "eq 18: disconnected lazy-group reconciliation, N² per node",
          MOBILE, strategies=("lazy-group",), values=(2, 4, 8), seeds=(0, 1),
          duration=80.0, metric="reconciliation_rate",
          model=lazy_group.mobile_reconciliation_rate,
          checks=(Exponent(3.0, 0.6), Growth(10.0))),
    Claim("eq18-disconnect", "eq 18: linear in Disconnect_Time",
          MOBILE.with_(nodes=4), strategies=("lazy-group",),
          axis="disconnect_time", values=(2.5, 5.0, 10.0), seeds=(0, 1),
          duration=80.0, metric="reconciliation_rate",
          model=lazy_group.mobile_reconciliation_rate,
          checks=(Exponent(1.0, 0.75),)),
    Claim("eq19-deadlocks",
          "eq 19: lazy-master deadlocks grow as N², below eager's",
          MASTER_REGIME, strategies=("lazy-master",), values=NODE_SWEEP,
          seeds=(1,), duration=300.0, metric="deadlock_rate",
          model=lazy_master.deadlock_rate,
          checks=(Exponent(2.0, 0.75), Within(hi=1.0, per="eq19-eager"))),
    Claim("eq19-waits", "eq 19: lazy-master waits grow as N²",
          MASTER_REGIME, strategies=("lazy-master",), values=NODE_SWEEP,
          seeds=(2,), duration=300.0, metric="wait_rate",
          model=lazy_master.wait_rate, checks=(Exponent(2.0, 0.5),)),
    Claim("eq19-eager", "eq 12 beside eq 19: the gap widens with N",
          MASTER_REGIME, strategies=("eager-group",), values=NODE_SWEEP,
          seeds=(1,), duration=300.0, metric="deadlock_rate",
          model=eager.total_deadlock_rate,
          checks=(Growth(1.0, than="eq19-deadlocks"),)),
    # -- figure 3: scaleup by partitioning versus replication -------- #
    # two partitioned servers are two seeds of one: 2 x 1 TPS x 2 actions
    # in all, ± 20 %, is 2 ± 0.4 per server
    Claim("fig3-partitioned",
          "figure 3: a partitioned 1-TPS server does TPS x Actions",
          FIGURE3.with_(db_size=50), strategies=("eager-group",),
          seeds=(0, 1), duration=200.0, metric="action_rate",
          checks=(Within(1.6, 2.4),)),
    # 4 x TPS x Actions ± 20 %, and twice the partitioned pair's sum ± 25 %,
    # which is (3, 5) times one partitioned server
    Claim("fig3-replicated",
          'figure 3: "doubling the users increased the total workload by a '
          'factor of four"',
          FIGURE3.with_(nodes=2), strategies=("eager-group",), seeds=(0,),
          duration=200.0, metric="action_rate",
          checks=(Within(6.4, 9.6), Within(3.0, 5.0, per="fig3-partitioned"))),
    Claim("fig3-eq8", "eq 8: the action rate is quadratic in N", FIGURE3,
          values=(1, 2, 4, 8, 16), model=eager.action_rate,
          checks=(Exponent(2.0, EXACT),)),
    # -- message delay, which the model ignores ---------------------- #
    Claim("delay-lazy-group",
          '§4: "if message propagation times were added, the '
          'reconciliation rate would rise"',
          DELAY, strategies=("lazy-group",), axis="message_delay",
          values=(0.0, 0.05, 0.2, 0.5), seeds=(1,), duration=150.0,
          metric="reconciliation_rate", checks=(Monotone(), Growth(3.0))),
    Claim("delay-lazy-master",
          '§3: with message delays each transaction "would hold resources '
          'much longer"',
          DELAY, strategies=("lazy-master",), axis="message_delay",
          values=(0.0, 0.05, 0.2), seeds=(1,), duration=150.0,
          metric="wait_rate", checks=(Growth(1.0),)),
    # -- section 7: two-tier stays stable where lazy-group does not -- #
    # (the oracle's convergence check holds every two-tier base at 0)
    Claim("x1-lazy-group",
          "§7: the mobile workload's lazy-group reconciliations explode",
          X1, strategies=("lazy-group",), values=(2, 4, 8), seeds=(1,),
          duration=60.0, metric="reconciliation_rate", checks=(Growth(5.0),)),
    Claim("x1-commuting-rejects",
          "§7: two-tier with commuting transactions rejects nothing",
          X1, strategies=("two-tier",), values=(2, 4, 8), seeds=(1,),
          duration=60.0, commutative=True, metric="tentative_rejected",
          checks=(Equal(0),)),
    Claim("x1-commuting-reconciliations",
          "§7: two-tier with commuting transactions never reconciles",
          X1, strategies=("two-tier",), values=(2, 4, 8), seeds=(1,),
          duration=60.0, commutative=True, metric="reconciliations",
          checks=(Equal(0),)),
    Claim("x1-strict-rejects",
          "§7: strict acceptance rejects more with N, the base still "
          "converged",
          X1, strategies=("two-tier",), values=(2, 4, 8), seeds=(1,),
          duration=60.0, metric="tentative_rejected", checks=(Growth(1.0),)),
    # -- section 8: every strategy at identical load ------------------ #
    Claim("x3-reconciliations",
          '§8: "lazy-group replication just converts waits and deadlocks '
          'into reconciliations"; no other strategy reconciles',
          X3, strategies=STRATEGIES, seeds=(2,), duration=120.0,
          metric="reconciliations",
          checks=(Within(lo=0, of=("lazy-group",)),
                  Equal(0, of=tuple(s for s in STRATEGIES
                                    if s != "lazy-group")))),
    Claim("x3-deadlocks",
          "§8: lazy-master and SCAR deadlock less than eager-group, "
          "deferred update never",
          X3, strategies=STRATEGIES, seeds=(2,), duration=120.0,
          metric="deadlocks",
          checks=(Within(hi=1.0, per="eager-group",
                         of=("lazy-master", "scar")),
                  Within(hi=1.0, per="x3-reconciliations",
                         of=("lazy-group",)),
                  Equal(0, of=("deferred-update",)))),
    Claim("x3-cert-aborts",
          "§8, extended: the certification strategies abort on conflicts",
          X3, strategies=("deferred-update", "scar"), seeds=(2,),
          duration=120.0, metric="cert_aborts", checks=(Within(lo=0),)),
    Claim("x3-divergence", "§8: every strategy converges after the drain",
          X3, strategies=STRATEGIES, seeds=(2,), duration=120.0,
          metric="divergence", checks=(Equal(0),)),
    Claim("x3-commits", "§8: every strategy commits real work",
          X3, strategies=STRATEGIES, seeds=(2,), duration=120.0,
          metric="commits", checks=(Within(lo=100),)),
)
