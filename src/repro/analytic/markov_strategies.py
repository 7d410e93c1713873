"""Per-strategy transaction-state chains for the Markov fast path.

Each replication strategy gets a small continuous-time chain over a tagged
transaction's lifecycle, parameterised by the same Table-2 quantities the
closed forms use (nodes, actions, update rate, DB size, placement ``k``,
message delay):

* **eager-group / eager-master / lazy-master / two-tier** —
  ``running -> waiting -> restarting``: a lock request collides and waits;
  a second wait escalates to a deadlock victim ("it takes two waits to make
  a deadlock"), which aborts after a restart residence.
* **lazy-group** — ``running -> propagating -> reconciling``: the origin
  transaction commits locally, its updates propagate asynchronously, and a
  collision during the propagation window becomes a reconciliation.
* **deferred-update / scar** — ``running -> certifying -> restarting``:
  execution is coordination-free, so nothing ever waits on a user lock;
  a conflicting commit landing inside the transaction's exposure window
  surfaces at the decision point as a clean certification abort.  One
  conflicting pair suffices (no "two waits" escalation), so the danger
  rate follows the *quadratic* birthday law — the cube-law escape the
  certification strategies exist to demonstrate.

The per-transition hazards come from the paper's own conflict probabilities
(equations 2/9/11 and their partial-replication analogues), so in the
low-contention limit every chain's predicted system rate converges to the
matching closed form — eq 12 for eager-group deadlocks, eq 14 for
lazy-group reconciliations, eq 19 for lazy-master — including the
``k / Nodes`` softening of :mod:`repro.analytic.partial` when a placement
is configured.  Eager-master is the one deliberate departure: its chain
models the master-first lock ordering the DES actually implements (cycles
only close across distinct masters), landing on an equation-19-style
quadratic law rather than equation 12's pessimistic cubic — see
:func:`_eager_chain`.

What the chain adds beyond the closed forms is *feedback*: waiting and
restarting transactions inflate the in-flight population (Little's law),
which inflates the conflict hazards, which inflates waiting.
:func:`predict` resolves that loop with a damped fixed point on a single
congestion multiplier — the same time-dilation effect that makes the DES
measure slightly steeper exponents than the model (see EXPERIMENTS.md),
now predicted instead of simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analytic.markov import MarkovChain, stationary_distribution
from repro.analytic.parameters import ModelParameters
from repro.exceptions import ConfigurationError

#: guard against zero durations (action_time=0 means "infinitely fast")
_EPS = 1e-12

#: congestion multiplier ceiling — far beyond any regime the hazard
#: linearisation is meaningful in; rates saturate at the arrival rate anyway
_CONGESTION_CAP = 1e4


@dataclass(frozen=True)
class StrategyChain:
    """One strategy's chain plus the bookkeeping the predictor needs.

    ``exits`` are labelled renewal flows ``(label, state, rate)``: the
    tagged transaction leaves the system (commit, deadlock abort,
    reconciliation) and its slot renews.  ``events`` are labelled non-exit
    flows counted per second (e.g. entries into waiting).
    ``exposure_states`` are the states in which the transaction contributes
    to the conflict pool (holds locks / has unpropagated updates), and
    ``base_exposure`` is the zero-contention residence in those states —
    the normaliser that makes the congestion multiplier 1.0 when the chain
    reduces to the closed form.
    """

    strategy: str
    chain: MarkovChain
    exits: Tuple[Tuple[str, str, float], ...]
    events: Tuple[Tuple[str, str, float], ...]
    exposure_states: Tuple[str, ...]
    base_exposure: float
    congestion: float


@dataclass(frozen=True)
class MarkovPrediction:
    """Steady-state prediction for one strategy at one parameter cell."""

    strategy: str
    params: ModelParameters
    replication_factor: int
    states: Tuple[str, ...]
    pi: Tuple[float, ...]
    congestion: float
    iterations: int
    sojourn: float  # mean seconds a transaction spends in the system
    commit_rate: float  # commits/s system-wide (throughput)
    deadlock_rate: float  # deadlock aborts/s system-wide
    wait_rate: float  # lock waits/s system-wide
    reconciliation_rate: float  # reconciliations/s system-wide
    abort_rate: float  # user-transaction aborts/s (deadlock + certification)

    def occupancy(self) -> Dict[str, float]:
        """``{state: stationary probability}``."""
        return dict(zip(self.states, self.pi))

    def rate(self, name: str) -> float:
        """Look up a predicted rate by its campaign-layer name."""
        try:
            return {
                "commit_rate": self.commit_rate,
                "deadlock_rate": self.deadlock_rate,
                "wait_rate": self.wait_rate,
                "reconciliation_rate": self.reconciliation_rate,
                "abort_rate": self.abort_rate,
            }[name]
        except KeyError:
            raise ConfigurationError(
                f"markov model predicts no rate named {name!r}"
            )


# --------------------------------------------------------------------- #
# shared hazard arithmetic
# --------------------------------------------------------------------- #


def _effective_k(p: ModelParameters, k: Optional[int]) -> int:
    """Replica fan-out: ``k`` clamped to the node count, default full."""
    if k is None:
        return p.nodes
    if k < 1:
        raise ConfigurationError(f"replication factor must be >= 1, got {k}")
    return min(k, p.nodes)


def _conflict_probabilities(
    pool: float, actions: int, db_size: int
) -> Tuple[float, float]:
    """Per-transaction wait and deadlock hazards from a conflict pool.

    The equation 2/9/11 construction: each of the transaction's ``Actions``
    lock requests collides with the pool's ``pool x Actions / 2`` held
    locks over ``DB_Size`` objects, and a deadlock needs two waits
    (``PD = PW^2 / pool``).  Returned as *expected counts per lifetime*
    (hazard numerators), deliberately unclamped so the fitted exponents
    stay clean across the whole sweep range.
    """
    if pool <= 0.0:
        return 0.0, 0.0
    pw = pool * actions**2 / (2.0 * db_size)
    pd = pw * actions**2 / (2.0 * db_size)  # = pw^2 / pool, simplified
    return pw, pd


def _lock_chain(
    strategy: str,
    p: ModelParameters,
    run_duration: float,
    pool0: float,
    congestion: float,
    serialization: float = 1.0,
) -> StrategyChain:
    """The blocking-strategy chain: running -> waiting -> restarting.

    ``run_duration`` is the pure execution time (the closed-form
    Transaction_Duration analogue); ``pool0`` the zero-contention conflict
    pool (the Total_Transactions analogue).  Deadlocks happen only from the
    waiting state, at the conditional hazard ``PD / PW`` — the paper's "it
    takes two waits to make a deadlock".  ``serialization > 1`` divides the
    escalation hazard: master-ordered schemes serialize same-object
    conflicts at one node, so only cross-master wait pairs can close a
    deadlock cycle (see :func:`_eager_chain`).
    """
    duration = max(run_duration, _EPS)
    pool = congestion * pool0
    pw, pd = _conflict_probabilities(pool, p.actions, p.db_size)
    wait_hazard = pw / duration
    escalation = (
        min(pd / (pw * serialization), 1.0) if pw > 0.0 else 0.0
    )
    wait_time = duration / 2.0  # victim waits about half a lifetime
    restart_time = duration / 2.0  # abort + undo residence
    chain = MarkovChain.from_transitions(
        ("running", "waiting", "restarting"),
        {
            ("running", "waiting"): wait_hazard,
            ("waiting", "running"): (1.0 - escalation) / wait_time,
            ("waiting", "restarting"): escalation / wait_time,
            ("restarting", "running"): 1.0 / restart_time,
        },
    )
    return StrategyChain(
        strategy=strategy,
        chain=chain,
        exits=(
            ("commit", "running", 1.0 / duration),
            ("deadlock", "restarting", 1.0 / restart_time),
        ),
        events=(("wait", "running", wait_hazard),),
        exposure_states=("running", "waiting"),  # both hold locks
        base_exposure=duration,
        congestion=congestion,
    )


# --------------------------------------------------------------------- #
# per-strategy builders
# --------------------------------------------------------------------- #


def _eager_chain(
    strategy: str, p: ModelParameters, k: Optional[int], congestion: float
) -> StrategyChain:
    """Eager replication: locks held at all ``k`` replicas, sequentially.

    Execution takes ``Actions x k x Action_Time`` (equation 6b, or its
    partial analogue), plus a commit round of ``2 x Message_Delay`` when
    there are remote replicas — the cost the closed form explicitly drops.
    The conflict pool is Little's law over that duration, i.e. equation 7
    (``k = Nodes``) or the partial pool ``TPS x Actions x Action_Time x
    Nodes x k``.

    The group and master variants share the pool (both write every
    replica inside the transaction, so waits follow equation 10 either
    way) but differ in deadlock formation.  Group ownership races each
    update to all ``k`` replica copies, so a conflicting pair can close a
    cycle at any copy — the paper's equation 11/12 escalation.  Master
    ownership locks each object at its owner *first*; same-object
    conflicts serialize there and only wait pairs spanning two distinct
    masters in opposite order can deadlock, which divides the escalation
    hazard by the fan-out ``k`` and lands the deadlock law on the
    equation-19 quadratic — "having a master for each object helps eager
    replication avoid deadlocks" (section 3), and exactly what the DES
    measures (see EXPERIMENTS.md's section-8 scorecard).
    """
    k_eff = _effective_k(p, k)
    duration = p.actions * k_eff * p.action_time
    if k_eff > 1:
        duration += 2.0 * p.message_delay
    pool0 = p.tps * p.nodes * max(duration, _EPS)
    serialization = float(k_eff) if strategy == "eager-master" else 1.0
    return _lock_chain(
        strategy, p, duration, pool0, congestion, serialization=serialization
    )


def _master_chain(
    strategy: str, p: ModelParameters, congestion: float
) -> StrategyChain:
    """Lazy-master / two-tier base: one node running the aggregate load.

    Locks are held only at the master for ``Actions x Action_Time``, so the
    pool is ``TPS x Nodes x Actions x Action_Time`` — the equation 19
    construction ("a single node serving the whole network's load").
    Replica propagation happens after commit and holds no locks, so it does
    not enter the chain; the replication factor cancels entirely.
    """
    duration = p.actions * p.action_time
    pool0 = p.tps * p.nodes * max(duration, _EPS)
    return _lock_chain(strategy, p, duration, pool0, congestion)


def _lazy_group_chain(
    p: ModelParameters, k: Optional[int], congestion: float
) -> StrategyChain:
    """Lazy group: local execution, asynchronous propagation, reconcile.

    The origin transaction runs locally in ``Actions x Action_Time`` and
    always commits (no distributed locks).  Its updates are then exposed
    for a propagation window (message delay + the replica apply time); a
    collision during that window is a reconciliation — the paper's
    "transactions that would wait in an eager system face reconciliation",
    so the collision hazard uses the *eager* pool (equation 7, or its
    partial ``Nodes x k`` analogue), and the per-transaction reconciliation
    probability converges to equation 9, making the system rate
    equation 14 (x ``k/Nodes`` under a placement).
    """
    k_eff = _effective_k(p, k)
    duration = max(p.actions * p.action_time, _EPS)
    apply_time = p.actions * p.action_time if k_eff > 1 else 0.0
    window = max(p.message_delay + apply_time, _EPS)
    pool0 = p.tps * p.nodes * p.actions * k_eff * p.action_time
    pool = congestion * pool0
    pw, _ = _conflict_probabilities(pool, p.actions, p.db_size)
    collision_hazard = pw / window
    reconcile_time = duration  # rerunning the loser is another transaction
    chain = MarkovChain.from_transitions(
        ("running", "propagating", "reconciling"),
        {
            ("running", "propagating"): 1.0 / duration,
            ("propagating", "running"): 1.0 / window,
            ("propagating", "reconciling"): collision_hazard,
            ("reconciling", "running"): 1.0 / reconcile_time,
        },
    )
    return StrategyChain(
        strategy="lazy-group",
        chain=chain,
        exits=(
            ("commit", "propagating", 1.0 / window),
            ("reconcile", "reconciling", 1.0 / reconcile_time),
        ),
        events=(("collision", "propagating", collision_hazard),),
        exposure_states=("running", "propagating"),
        base_exposure=duration + window,
        congestion=congestion,
    )


def _certification_chain(
    strategy: str,
    p: ModelParameters,
    run_duration: float,
    decision_window: float,
    congestion: float,
) -> StrategyChain:
    """The certification-strategy chain: running -> certifying -> restarting.

    Execution is coordination-free (no user locks), so there is no waiting
    state at all.  The transaction's footprint is *exposed* from its first
    read until the decision point — ``run_duration + decision_window`` —
    and a conflicting commit landing anywhere in that span surfaces at
    certification as a clean abort.  The conflict arithmetic is the same
    birthday construction as equation 2's PW (pool x Actions^2 / 2 x
    DB_Size), but it stops there: one conflicting pair is enough, no
    second wait, no ``PD = PW^2`` escalation.  Hence aborts/s grow as
    ``pool x arrivals ~ N^2`` — the quadratic law the cube-law-escape
    experiment measures (EXPERIMENTS.md).

    The aborted transaction resubmits after a restart residence of half a
    lifetime, mirroring the lock chain's victim bookkeeping.
    """
    duration = max(run_duration, _EPS)
    window = max(decision_window, _EPS)
    exposure = duration + window
    pool = congestion * p.tps * p.nodes * exposure
    pw, _ = _conflict_probabilities(pool, p.actions, p.db_size)
    abort_probability = min(pw, 1.0)
    restart_time = duration / 2.0
    chain = MarkovChain.from_transitions(
        ("running", "certifying", "restarting"),
        {
            ("running", "certifying"): 1.0 / duration,
            ("certifying", "running"): (1.0 - abort_probability) / window,
            ("certifying", "restarting"): abort_probability / window,
            ("restarting", "running"): 1.0 / restart_time,
        },
    )
    return StrategyChain(
        strategy=strategy,
        chain=chain,
        exits=(
            ("commit", "certifying", (1.0 - abort_probability) / window),
            ("abort", "restarting", 1.0 / restart_time),
        ),
        events=(),
        exposure_states=("running", "certifying"),
        base_exposure=exposure,
        congestion=congestion,
    )


def _deferred_update_chain(
    p: ModelParameters, k: Optional[int], congestion: float
) -> StrategyChain:
    """Deferred update: local execution, one certifier round trip.

    The decision window covers the request/decision round plus the
    replication lag of the apply stream — a replica can serve a read that
    is stale by one in-flight apply, which widens the footprint's
    vulnerability exactly like an extra message delay.
    """
    duration = p.actions * p.action_time
    window = 2.0 * p.message_delay + p.actions * p.action_time
    return _certification_chain(
        "deferred-update", p, duration, window, congestion
    )


def _scar_chain(
    p: ModelParameters, k: Optional[int], congestion: float
) -> StrategyChain:
    """SCAR: local execution, master lock round + validation + install.

    The decision window is the master RPC round plus the install residence
    at the masters (``Actions x Action_Time`` again — ``execute_install``
    pays the action time per write).
    """
    duration = p.actions * p.action_time
    window = 2.0 * p.message_delay + p.actions * p.action_time
    return _certification_chain("scar", p, duration, window, congestion)


def build_chain(
    strategy: str,
    p: ModelParameters,
    k: Optional[int] = None,
    congestion: float = 1.0,
) -> StrategyChain:
    """The transaction-state chain for one strategy at one parameter cell."""
    if congestion < 1.0:
        raise ConfigurationError(
            f"congestion multiplier must be >= 1, got {congestion}"
        )
    if strategy in ("eager-group", "eager-master"):
        return _eager_chain(strategy, p, k, congestion)
    if strategy == "lazy-group":
        return _lazy_group_chain(p, k, congestion)
    if strategy in ("lazy-master", "two-tier"):
        return _master_chain(strategy, p, congestion)
    if strategy == "deferred-update":
        return _deferred_update_chain(p, k, congestion)
    if strategy == "scar":
        return _scar_chain(p, k, congestion)
    raise ConfigurationError(f"no markov chain for strategy {strategy!r}")


# --------------------------------------------------------------------- #
# the predictor
# --------------------------------------------------------------------- #


def predict(
    strategy: str,
    p: ModelParameters,
    k: Optional[int] = None,
    feedback: bool = True,
    tol: float = 1e-10,
    max_iter: int = 80,
) -> MarkovPrediction:
    """Solve one strategy's chain to a steady-state rate prediction.

    With ``feedback=True`` (the default) the conflict pool is resolved
    self-consistently: solve the chain, measure the tagged transaction's
    residence in lock-holding states, scale the pool by
    ``residence / base_exposure`` (Little's law), and iterate with damping
    until the congestion multiplier converges.  ``feedback=False`` is the
    pure closed-form-hazard chain — useful for isolating what the fixed
    point adds.
    """
    arrival_rate = p.tps * p.nodes
    congestion = 1.0
    iterations = 0
    sc = build_chain(strategy, p, k, congestion)
    pi = stationary_distribution(sc.chain)
    if feedback and arrival_rate > 0.0:
        for iterations in range(1, max_iter + 1):
            sojourn = _sojourn(sc, pi)
            exposure = sojourn * sum(
                pi[sc.chain.index(state)] for state in sc.exposure_states
            )
            target = min(
                max(exposure / max(sc.base_exposure, _EPS), 1.0),
                _CONGESTION_CAP,
            )
            updated = 0.5 * congestion + 0.5 * target
            if abs(updated - congestion) <= tol * max(1.0, congestion):
                congestion = updated
                break
            congestion = updated
            sc = build_chain(strategy, p, k, congestion)
            pi = stationary_distribution(sc.chain)
    sojourn = _sojourn(sc, pi)

    exit_rates = {"commit": 0.0, "deadlock": 0.0, "reconcile": 0.0,
                  "abort": 0.0}
    total_flux = sum(
        pi[sc.chain.index(state)] * rate for _, state, rate in sc.exits
    )
    if arrival_rate > 0.0 and total_flux > 0.0:
        for label, state, rate in sc.exits:
            flux = pi[sc.chain.index(state)] * rate
            exit_rates[label] = exit_rates.get(label, 0.0) + (
                arrival_rate * flux / total_flux
            )
    in_flight = arrival_rate * sojourn  # Little's law
    event_rates = {
        label: in_flight * pi[sc.chain.index(state)] * rate
        for label, state, rate in sc.events
    }

    return MarkovPrediction(
        strategy=strategy,
        params=p,
        replication_factor=_effective_k(p, k),
        states=sc.chain.states,
        pi=pi,
        congestion=congestion,
        iterations=iterations,
        sojourn=sojourn,
        commit_rate=exit_rates["commit"],
        deadlock_rate=exit_rates["deadlock"],
        wait_rate=event_rates.get("wait", 0.0),
        reconciliation_rate=exit_rates["reconcile"],
        # every deadlock victim is also an abort; certification chains add
        # their clean decision-point aborts on top
        abort_rate=exit_rates["deadlock"] + exit_rates["abort"],
    )


def _sojourn(sc: StrategyChain, pi: Tuple[float, ...]) -> float:
    """Mean time in system: 1 / (renewal flux per in-flight transaction)."""
    flux = sum(pi[sc.chain.index(state)] * rate for _, state, rate in sc.exits)
    if flux <= 0.0:
        return 0.0
    return 1.0 / flux
