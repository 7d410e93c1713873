"""Finite-state Markov chains: the analytic fast path's numerical core.

The closed forms (equations 2-19) are instant but coarse — pure power laws
with no feedback; the DES is accurate but grinds through every lock request.
This module is the third track: small continuous-time Markov chains over a
*tagged transaction's* states (running / waiting / restarting, or running /
propagating / reconciling for lazy schemes) whose stationary distribution
yields throughput, abort, and deadlock rates in microseconds per parameter
cell.  :mod:`repro.analytic.markov_strategies` builds the per-strategy
chains; this module owns the chain representation and the solver.

The solver is dependency-free dense Gaussian elimination on the balance
equations ``pi Q = 0, sum(pi) = 1`` (exact up to float round-off; the
chains here have 3-4 states, so a dense solve is the fast path, not a
compromise).  The property tests certify its answer against power
iteration on the uniformised kernel ``P = I + Q / Lambda``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class MarkovChain:
    """A continuous-time Markov chain given by its off-diagonal rates.

    ``rates[i][j]`` is the transition rate from ``states[i]`` to
    ``states[j]`` (entries on the diagonal must be zero; the generator's
    diagonal is derived).  Rates are per second of model time, matching the
    Table-2 units.
    """

    states: Tuple[str, ...]
    rates: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.states)
        if n == 0:
            raise ConfigurationError("chain needs at least one state")
        if len(set(self.states)) != n:
            raise ConfigurationError(f"duplicate state names in {self.states}")
        if len(self.rates) != n or any(len(row) != n for row in self.rates):
            raise ConfigurationError(
                f"rate matrix must be {n}x{n} to match {self.states}"
            )
        for i, row in enumerate(self.rates):
            for j, rate in enumerate(row):
                if i == j and rate != 0.0:
                    raise ConfigurationError(
                        f"diagonal rate [{i}][{i}] must be 0, got {rate}"
                    )
                if rate < 0.0 or rate != rate:  # negative or NaN
                    raise ConfigurationError(
                        f"rate {self.states[i]}->{self.states[j]} must be "
                        f"a finite non-negative number, got {rate}"
                    )

    @classmethod
    def from_transitions(
        cls,
        states: Sequence[str],
        transitions: Mapping[Tuple[str, str], float],
    ) -> "MarkovChain":
        """Build a chain from a ``{(src, dst): rate}`` mapping.

        Unmentioned pairs default to rate zero; zero-rate entries may be
        listed explicitly for readability.
        """
        states = tuple(states)
        index = {name: i for i, name in enumerate(states)}
        n = len(states)
        rows = [[0.0] * n for _ in range(n)]
        for (src, dst), rate in transitions.items():
            if src not in index or dst not in index:
                raise ConfigurationError(
                    f"transition ({src!r}, {dst!r}) references unknown state"
                )
            rows[index[src]][index[dst]] = float(rate)
        return cls(states=states, rates=tuple(tuple(row) for row in rows))

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise ConfigurationError(
                f"unknown state {state!r}; chain has {self.states}"
            )

    def generator(self) -> List[List[float]]:
        """The generator matrix Q (diagonal = minus the row's exit rate)."""
        q = [list(row) for row in self.rates]
        for i, row in enumerate(q):
            row[i] = -sum(row)
        return q


# --------------------------------------------------------------------- #
# solver
# --------------------------------------------------------------------- #


def stationary_distribution(chain: MarkovChain) -> Tuple[float, ...]:
    """The stationary distribution ``pi`` with ``pi Q = 0, sum(pi) = 1``:
    the balance equations solved densely, as a non-negative vector
    summing to 1."""
    pi = _solve_direct(chain)
    # squash float-noise negatives and renormalise exactly once
    cleaned = [max(value, 0.0) for value in pi]
    total = sum(cleaned)
    if total <= 0.0:
        raise ConfigurationError("stationary solve produced a zero vector")
    return tuple(value / total for value in cleaned)


def _solve_direct(chain: MarkovChain) -> List[float]:
    """Gaussian elimination on ``Q^T pi = 0`` with the normalisation row.

    The last balance equation is redundant (rows of Q sum to zero), so it
    is replaced by ``sum(pi) = 1``, making the system square and (for an
    irreducible chain) uniquely solvable.
    """
    n = len(chain.states)
    q = chain.generator()
    # A = Q^T with the final row swapped for the normalisation constraint
    a = [[q[j][i] for j in range(n)] for i in range(n)]
    a[n - 1] = [1.0] * n
    b = [0.0] * (n - 1) + [1.0]

    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-300:
            raise ConfigurationError(
                "singular balance system: the chain is reducible "
                f"(states {chain.states})"
            )
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0.0:
                continue
            row, prow = a[r], a[col]
            for c in range(col, n):
                row[c] -= factor * prow[c]
            b[r] -= factor * b[col]

    pi = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        row = a[r]
        for c in range(r + 1, n):
            acc -= row[c] * pi[c]
        pi[r] = acc / row[r]
    return pi


def state_map(chain: MarkovChain, pi: Sequence[float]) -> Dict[str, float]:
    """``{state name: stationary probability}`` for readable reporting."""
    return dict(zip(chain.states, pi))
