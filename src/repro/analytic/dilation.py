"""Time-dilation correction — the second-order effect the paper sets aside.

"A more careful analysis would consider th[e] fact that, as system load and
contention rises, the time to complete an action increases.  In a scaleable
server system, this time-dilation is a second-order effect and is ignored
here." (section 2)

The simulator is a *closed* system, so it dilates: each node must apply the
whole network's update stream (equation 8 / Nodes per node), and as that
utilization approaches saturation, queueing stretches every action.  This
module models the effect with the standard M/M/1 response-time factor and
produces dilation-corrected danger curves:

* per-node update utilization   ``rho = TPS x Actions x Nodes x Action_Time``
* dilated action time           ``Action_Time / (1 - rho)``
* dilated deadlock rate         equation 12 x ``1 / (1 - rho)``

The corrected curves grow *faster* than the paper's pure polynomials.  The
claim row ``eq12-dilated`` (``benchmarks/claims.py``) sets them beside the
simulator: over N = 2-6 the paper's exponent is 3.00, the dilated one 3.90
and the measured one 3.47, and the row holds the measurement within 0.55 of
the dilated curve.
"""

from __future__ import annotations

from typing import Optional

from repro.analytic import eager, lazy_master
from repro.analytic.parameters import ModelParameters
from repro.exceptions import ConfigurationError


def node_utilization(p: ModelParameters) -> float:
    """Fraction of a node's capacity consumed by update application.

    Each node performs the system's per-node action rate
    (equation 8 / Nodes = ``TPS x Actions x Nodes``) at ``Action_Time``
    seconds per action.
    """
    return p.tps * p.actions * p.nodes * p.action_time


def saturation_nodes(p: ModelParameters) -> float:
    """The node count at which a node's update work saturates it (rho = 1).

    "Growing power at an N^2 rate is problematic" — beyond this point the
    fixed-capacity system cannot keep up at all.
    """
    per_node = p.tps * p.actions * p.action_time
    if per_node <= 0:
        raise ConfigurationError("needs a positive workload")
    return 1.0 / per_node


def dilated_action_time(p: ModelParameters) -> float:
    """Effective action time under queueing: ``Action_Time / (1 - rho)``.

    Returns ``inf`` at or beyond saturation.
    """
    rho = node_utilization(p)
    if rho >= 1.0:
        return float("inf")
    return p.action_time / (1.0 - rho)


def dilated_parameters(p: ModelParameters) -> Optional[ModelParameters]:
    """The model parameters with the dilated action time substituted.

    Returns None at or beyond saturation (the model has no steady state).
    """
    stretched = dilated_action_time(p)
    if stretched == float("inf"):
        return None
    return p.with_(action_time=stretched)


def dilated_eager_deadlock_rate(p: ModelParameters) -> float:
    """Equation 12 with queueing dilation: the closed-system prediction.

    ``Total_Eager_Deadlock_Rate x 1 / (1 - rho)`` — because the deadlock
    rate (equation 12) is linear in ``Action_Time``, substituting the
    dilated action time multiplies it by the response-time factor.
    Diverges at saturation.
    """
    rho = node_utilization(p)
    if rho >= 1.0:
        return float("inf")
    return eager.total_deadlock_rate(p) / (1.0 - rho)


def dilated_eager_wait_rate(p: ModelParameters) -> float:
    """Equation 10 with queueing dilation (same linear substitution)."""
    rho = node_utilization(p)
    if rho >= 1.0:
        return float("inf")
    return eager.total_wait_rate(p) / (1.0 - rho)


def dilated_lazy_master_deadlock_rate(p: ModelParameters) -> float:
    """Equation 19 with queueing dilation."""
    rho = node_utilization(p)
    if rho >= 1.0:
        return float("inf")
    return lazy_master.deadlock_rate(p) / (1.0 - rho)


def effective_exponent(
    fn, p: ModelParameters, low_nodes: int, high_nodes: int
) -> float:
    """Local growth exponent of ``fn`` between two node counts.

    ``d ln(rate) / d ln(N)`` estimated by the two-point secant — the number
    a log-log fit over that range would report.  For the dilated eager rate
    this exceeds 3 and grows toward saturation, quantifying how far above
    cubic a closed-system measurement should sit.
    """
    import math

    lo = fn(p.with_(nodes=low_nodes))
    hi = fn(p.with_(nodes=high_nodes))
    if not (0 < lo < float("inf")) or not (0 < hi < float("inf")):
        raise ConfigurationError("exponent undefined at or past saturation")
    return math.log(hi / lo) / math.log(high_nodes / low_nodes)
