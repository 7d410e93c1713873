"""Property-based tests for the Markov analytic fast path.

Two layers, matching the module split:

* :mod:`repro.analytic.markov` — the solver.  For random irreducible
  chains the stationary vector must be a probability distribution
  (non-negative, sums to 1), must actually be stationary (the L1 residual
  ``||pi P - pi||`` below tolerance), and it must agree with power
  iteration on the uniformised kernel, the reference solver kept here.
* :mod:`repro.analytic.markov_strategies` — the chains.  Every strategy's
  predicted danger rate must be monotone in node count and transaction
  size (the paper's central claim is that danger *grows* with both), the
  exit rates must conserve the arrival rate, and in the low-contention
  limit each chain must converge to its closed-form ancestor.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import (
    ModelParameters,
    eager,
    lazy_group,
    lazy_master,
)
from repro.analytic.markov import (
    MarkovChain,
    state_map,
    stationary_distribution,
)
from repro.analytic.markov_strategies import build_chain, predict
from repro.analytic.reference import predicted_rate
from repro.exceptions import ConfigurationError
from repro.harness.strategies import STRATEGIES

SETTINGS = settings(max_examples=60, deadline=None)

#: safety margin on the uniformisation rate so P keeps a strictly positive
#: diagonal (aperiodicity, hence power-iteration convergence)
_UNIFORMIZATION_SLACK = 1.05


def uniformization_rate(chain):
    """A rate dominating every state's total exit rate."""
    heaviest = max(sum(row) for row in chain.rates)
    return heaviest * _UNIFORMIZATION_SLACK if heaviest > 0.0 else 1.0


def transition_matrix(chain):
    """The uniformised DTMC kernel ``P = I + Q / Lambda`` (stochastic)."""
    lam = uniformization_rate(chain)
    p = [[rate / lam for rate in row] for row in chain.rates]
    for i, row in enumerate(p):
        row[i] = 1.0 - sum(row)
    return p


def residual(chain, pi):
    """L1 residual ``||pi P - pi||_1`` of a candidate stationary vector."""
    p = transition_matrix(chain)
    n = len(chain.states)
    if len(pi) != n:
        raise ConfigurationError(
            f"pi has {len(pi)} entries for a {n}-state chain"
        )
    out = [0.0] * n
    for i, weight in enumerate(pi):
        row = p[i]
        for j in range(n):
            out[j] += weight * row[j]
    return sum(abs(out[j] - pi[j]) for j in range(n))


def power_iteration(chain, tol, max_iter=100_000):
    """The reference solver: power iteration on the uniformised kernel
    from the uniform vector, until the L1 step falls below ``tol``."""
    p = transition_matrix(chain)
    n = len(chain.states)
    pi = [1.0 / n] * n
    for _ in range(max_iter):
        nxt = [0.0] * n
        for i, weight in enumerate(pi):
            if weight == 0.0:
                continue
            row = p[i]
            for j in range(n):
                nxt[j] += weight * row[j]
        step = sum(abs(nxt[j] - pi[j]) for j in range(n))
        pi = nxt
        if step <= tol:
            return pi
    raise AssertionError(
        f"power iteration did not converge within {max_iter} steps "
        f"(tol={tol:g})"
    )


def reference_rate(strategy, p, k=None):
    """The strategy's modelled danger rate under the Markov track."""
    return predicted_rate(strategy, p, k, "markov")[1]

# fully-connected random chains are irreducible by construction
chain_strategy = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.floats(0.01, 50.0), min_size=n * (n - 1), max_size=n * (n - 1)
    ).map(lambda rates: _dense_chain(n, rates))
)


def _dense_chain(n, rates):
    states = tuple(f"s{i}" for i in range(n))
    it = iter(rates)
    transitions = {
        (states[i], states[j]): next(it)
        for i in range(n)
        for j in range(n)
        if i != j
    }
    return MarkovChain.from_transitions(states, transitions)


# moderate-contention Table-2 points for the strategy-chain properties
params_strategy = st.builds(
    ModelParameters,
    db_size=st.integers(1_000, 1_000_000),
    nodes=st.integers(1, 24),
    tps=st.floats(0.1, 10.0),
    actions=st.integers(2, 8),
    action_time=st.floats(1e-4, 0.01),
    message_delay=st.floats(0.0, 0.01),
)


# --------------------------------------------------------------------- #
# solver properties
# --------------------------------------------------------------------- #


class TestStationaryDistribution:
    @SETTINGS
    @given(chain_strategy)
    def test_is_a_probability_distribution(self, chain):
        pi = stationary_distribution(chain)
        assert all(p >= 0.0 for p in pi)
        assert sum(pi) == pytest.approx(1.0, abs=1e-12)

    @SETTINGS
    @given(chain_strategy)
    def test_residual_below_tolerance(self, chain):
        pi = stationary_distribution(chain)
        assert residual(chain, pi) < 1e-9

    @SETTINGS
    @given(chain_strategy)
    def test_direct_and_power_solvers_agree(self, chain):
        direct = stationary_distribution(chain)
        power = power_iteration(chain, tol=1e-14)
        for a, b in zip(direct, power):
            assert a == pytest.approx(b, abs=1e-8)

    @SETTINGS
    @given(chain_strategy)
    def test_generator_rows_sum_to_zero(self, chain):
        for row in chain.generator():
            assert sum(row) == pytest.approx(0.0, abs=1e-12)

    @SETTINGS
    @given(chain_strategy)
    def test_uniformised_kernel_is_stochastic(self, chain):
        for row in transition_matrix(chain):
            assert all(entry >= 0.0 for entry in row)
            assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_state_map_pairs_names_with_probabilities(self):
        chain = MarkovChain.from_transitions(
            ("a", "b"), {("a", "b"): 1.0, ("b", "a"): 3.0}
        )
        pi = stationary_distribution(chain)
        mapped = state_map(chain, pi)
        assert mapped["a"] == pytest.approx(0.75)
        assert mapped["b"] == pytest.approx(0.25)


class TestSolverErrorPaths:
    def test_reducible_chain_rejected(self):
        # two disconnected components: no unique stationary distribution
        chain = MarkovChain.from_transitions(
            ("a", "b", "c", "d"),
            {("a", "b"): 1.0, ("b", "a"): 1.0,
             ("c", "d"): 1.0, ("d", "c"): 1.0},
        )
        with pytest.raises(ConfigurationError, match="reducible"):
            stationary_distribution(chain)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            MarkovChain.from_transitions(
                ("a", "b"), {("a", "b"): -1.0, ("b", "a"): 1.0}
            )

    def test_unknown_transition_state_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown state"):
            MarkovChain.from_transitions(("a", "b"), {("a", "z"): 1.0})

    def test_duplicate_states_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            MarkovChain(states=("a", "a"),
                        rates=((0.0, 1.0), (1.0, 0.0)))

    def test_residual_checks_vector_length(self):
        chain = MarkovChain.from_transitions(
            ("a", "b"), {("a", "b"): 1.0, ("b", "a"): 1.0}
        )
        with pytest.raises(ConfigurationError):
            residual(chain, (0.5, 0.25, 0.25))


# --------------------------------------------------------------------- #
# strategy-chain properties
# --------------------------------------------------------------------- #


class TestStrategyChains:
    @SETTINGS
    @given(params_strategy, st.sampled_from(STRATEGIES))
    def test_reference_rate_monotonic_in_nodes(self, p, strategy):
        grown = p.with_(nodes=p.nodes + 1)
        low = reference_rate(strategy, p)
        high = reference_rate(strategy, grown)
        assert high >= low * (1.0 - 1e-9)

    @SETTINGS
    @given(params_strategy, st.sampled_from(STRATEGIES))
    def test_reference_rate_monotonic_in_txn_size(self, p, strategy):
        grown = p.with_(actions=p.actions + 1)
        low = reference_rate(strategy, p)
        high = reference_rate(strategy, grown)
        assert high >= low * (1.0 - 1e-9)

    @SETTINGS
    @given(params_strategy, st.sampled_from(STRATEGIES))
    def test_exit_rates_conserve_the_arrival_rate(self, p, strategy):
        # abort_rate already folds in the deadlock exits, so the renewal
        # flux is commits + reconciliations + aborts of either kind
        pred = predict(strategy, p)
        total_exits = (pred.commit_rate + pred.abort_rate
                       + pred.reconciliation_rate)
        assert total_exits == pytest.approx(p.tps * p.nodes, rel=1e-9)

    @SETTINGS
    @given(params_strategy, st.sampled_from(STRATEGIES))
    def test_prediction_is_finite_and_well_formed(self, p, strategy):
        pred = predict(strategy, p)
        assert len(pred.pi) == len(pred.states)
        assert sum(pred.pi) == pytest.approx(1.0, abs=1e-9)
        assert pred.congestion >= 1.0
        for value in (pred.commit_rate, pred.deadlock_rate,
                      pred.wait_rate, pred.reconciliation_rate,
                      pred.abort_rate, pred.sojourn):
            assert math.isfinite(value) and value >= 0.0
        assert set(pred.occupancy()) == set(pred.states)

    def test_feedback_off_keeps_congestion_at_one(self):
        p = ModelParameters(db_size=100, nodes=8, tps=5,
                            actions=4, action_time=0.01)
        fed = predict("eager-group", p)
        pure = build_chain("eager-group", p)  # the chain without feedback
        assert pure.congestion == 1.0
        assert fed.congestion > 1.0  # dense regime: waiting inflates pool
        fed_chain = build_chain("eager-group", p, congestion=fed.congestion)
        run, wait = pure.chain.index("running"), pure.chain.index("waiting")
        assert fed_chain.chain.rates[run][wait] > pure.chain.rates[run][wait]


class TestLowContentionLimits:
    """Deep in the low-contention regime each chain recovers its equation."""

    _P = ModelParameters(db_size=500_000, nodes=10, tps=5,
                         actions=5, action_time=0.01)

    def test_eager_group_converges_to_eq_12(self):
        assert reference_rate("eager-group", self._P) == pytest.approx(
            eager.total_deadlock_rate(self._P), rel=1e-3
        )

    def test_lazy_group_converges_to_eq_14(self):
        assert reference_rate("lazy-group", self._P) == pytest.approx(
            lazy_group.reconciliation_rate(self._P), rel=1e-3
        )

    def test_lazy_master_converges_to_eq_19(self):
        assert reference_rate("lazy-master", self._P) == pytest.approx(
            lazy_master.deadlock_rate(self._P), rel=1e-3
        )

    def test_eager_master_follows_the_quadratic_master_law(self):
        # the deliberate departure: master-first ordering divides the
        # escalation hazard by the fan-out, so eager-master converges to
        # eq 12 / Nodes (an eq-19-style quadratic), not eq 12 itself
        assert reference_rate("eager-master", self._P) == pytest.approx(
            eager.total_deadlock_rate(self._P) / self._P.nodes, rel=1e-3
        )


class TestChainConfiguration:
    _P = ModelParameters(db_size=1000, nodes=4, tps=5,
                         actions=4, action_time=0.01)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="no markov chain"):
            build_chain("quantum-consensus", self._P)

    def test_reference_rate_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="no reference rate"):
            reference_rate("quantum-consensus", self._P)

    def test_sub_unit_congestion_rejected(self):
        with pytest.raises(ConfigurationError, match="congestion"):
            build_chain("eager-group", self._P, congestion=0.5)

    def test_zero_replication_factor_rejected(self):
        with pytest.raises(ConfigurationError, match="replication factor"):
            predict("eager-group", self._P, k=0)

    def test_unknown_rate_name_rejected(self):
        pred = predict("eager-group", self._P)
        with pytest.raises(ConfigurationError, match="no rate named"):
            pred.rate("teleportation_rate")
