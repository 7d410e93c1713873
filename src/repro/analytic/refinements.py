"""Exact (non-linearised) forms of the paper's probability approximations.

The paper linearises ``1 - (1 - x)^n ~= n x`` when deriving equation 2 and
ignores second-order effects throughout ("If DB_Size >> Nodes, such conflicts
will be rare").  These exact forms let the tests quantify the approximation
error and delimit the model's validity region (PW << 1), and give the
simulator-comparison benchmarks a fairer analytic target at high contention.
"""

from __future__ import annotations

import math

from repro.analytic.parameters import ModelParameters
from repro.analytic import eager as eager_eqs


def exact_wait_probability(p: ModelParameters) -> float:
    """Equation 2 before linearisation.

    ``PW = 1 - (1 - Transactions x Actions / (2 DB_Size))^Actions``

    The per-request collision probability is clamped to [0, 1] so the formula
    stays meaningful outside the dilute regime.
    """
    per_request = min(1.0, p.transactions * p.actions / (2 * p.db_size))
    return 1.0 - (1.0 - per_request) ** p.actions


def exact_eager_wait_probability(p: ModelParameters) -> float:
    """Equation 9 before linearisation (eager, N nodes).

    Total_Transactions other transactions each hold ~``Actions/2`` of the
    ``DB_Size`` objects; a transaction makes ``Actions`` independent
    requests.
    """
    total = eager_eqs.total_transactions(p)
    per_request = min(1.0, total * p.actions / (2 * p.db_size))
    return 1.0 - (1.0 - per_request) ** p.actions


def linearisation_error(p: ModelParameters) -> float:
    """Relative error of the linearised equation 2 versus the exact form.

    Near zero when ``PW << 1``; grows as contention rises, marking where the
    paper's closed forms stop being trustworthy.
    """
    from repro.analytic import single_node

    exact = exact_wait_probability(p)
    if exact == 0:
        return 0.0
    approx = single_node.wait_probability(p)
    return abs(approx - exact) / exact


def exact_collision_probability(p: ModelParameters) -> float:
    """Equation 17 computed without the independence shortcut.

    Treats the outbound set as ``k`` distinct uniform objects and the inbound
    set as ``m`` distinct uniform objects in a database of size ``D``; the
    probability the sets intersect is

    ``1 - C(D - k, m) / C(D, m)  =  1 - prod_{i=0}^{m-1} (D - k - i)/(D - i)``

    computed in log space for numerical stability.
    """
    from repro.analytic import lazy_group

    d = p.db_size
    k = min(int(round(lazy_group.outbound_updates(p))), d)
    m = min(int(round(lazy_group.inbound_updates(p))), d)
    if k <= 0 or m <= 0:
        return 0.0
    if k + m > d:
        return 1.0
    log_miss = 0.0
    for i in range(m):
        log_miss += math.log(d - k - i) - math.log(d - i)
    return 1.0 - math.exp(log_miss)


def poisson_collision_probability(p: ModelParameters) -> float:
    """Equation 17 with Poisson-thinned update sets.

    Models the outbound/inbound counts as Poisson rather than deterministic
    and computes the intersection probability
    ``1 - exp(-k m / D)`` — the standard birthday-style refinement.  Close to
    the exact hypergeometric form above and to the paper's ``k m / D`` when
    small.
    """
    from repro.analytic import lazy_group

    k = lazy_group.outbound_updates(p)
    m = lazy_group.inbound_updates(p)
    if k <= 0 or m <= 0:
        return 0.0
    return 1.0 - math.exp(-k * m / p.db_size)


def validity_region(p: ModelParameters) -> bool:
    """True when the linearised model is trustworthy at these parameters.

    The criterion is the paper's implicit one: the wait probability must be
    small (``PW < 0.1``) so that ``rare^2`` reasoning about deadlocks
    holds.
    """
    return exact_eager_wait_probability(p) < 0.1
