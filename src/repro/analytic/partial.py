"""Partial replication: the danger curves with a replication-factor axis.

The paper's equations 6-14 assume every node replicates every object, which
is what makes transaction duration grow with ``Nodes`` and drives the cubic
deadlock law (equation 12).  A placement layer that keeps only ``k`` replicas
per object (:class:`~repro.placement.HashShardPlacement`) re-derives those
equations with ``k`` in place of ``Nodes`` wherever the count of replicas —
rather than the count of origin nodes — appears:

* an update transaction writes ``k`` replicas, so its size is
  ``Actions x k`` and its duration ``Actions x k x Action_Time``;
* the system still originates ``TPS x Nodes`` transactions per second, so
  the concurrency pool is ``TPS x Actions x Action_Time x Nodes x k``;
* conflict probabilities keep the equation 9/11 forms over the shared
  ``DB_Size`` keyspace.

The headline result: the eager deadlock rate becomes

``TPS^2 x Action_Time x Actions^5 x Nodes^2 x k / (4 DB_Size^2)``

— exactly equation 12 scaled by ``k / Nodes``.  For a fixed replication
factor the growth order drops from cubic to **quadratic** in nodes; at
``k = Nodes`` every formula here reduces to its full-replication ancestor.

Each function caps ``k`` at ``p.nodes``, matching the bound placement
(``HashShardPlacement`` clamps its factor to the node count), so sweeping a
node axis through ``nodes < k`` degrades gracefully to full replication.

The dividend is a property of the *replication factor*, not of how the
map is built: a :class:`~repro.placement.DirectoryPlacement` with the
same ``k`` carries the same ``k / Nodes`` scaling, whether its shards are
grouped by locality or by hash — the campaign layer reads ``k`` off any
placement spec exposing ``replication_factor``, so directory sweeps get
these reference curves with no extra wiring.  (Locality grouping changes
*which* conflicts happen — co-located hot objects contend on fewer nodes
— not the equations' replica-count arithmetic.)
"""

from __future__ import annotations

from repro.analytic import eager
from repro.analytic.parameters import ModelParameters
from repro.exceptions import ConfigurationError


def _factor(p: ModelParameters, k: int) -> int:
    if k < 1:
        raise ConfigurationError(
            f"replication factor must be >= 1, got {k}"
        )
    return min(k, p.nodes)


# --------------------------------------------------------------------- #
# equation 6 analogues
# --------------------------------------------------------------------- #

def transaction_size(p: ModelParameters, k: int) -> float:
    """Partial analogue of equation 6a: ``Actions x k`` replica writes."""
    return p.actions * _factor(p, k)


def transaction_duration(p: ModelParameters, k: int) -> float:
    """Partial analogue of equation 6b: ``Actions x k x Action_Time``.

    Sequential replica updates, as in the paper's base model — but only
    ``k`` of them per action.
    """
    return p.actions * _factor(p, k) * p.action_time


def total_transactions(p: ModelParameters, k: int) -> float:
    """Partial analogue of equation 7: concurrent transactions system-wide.

    ``TPS x Actions x Action_Time x Nodes x k`` — nodes originate as
    before, but each transaction lives ``k/Nodes`` as long.
    """
    return p.tps * p.actions * p.action_time * p.nodes * _factor(p, k)


def action_rate(p: ModelParameters, k: int) -> float:
    """Partial analogue of equation 8: replica updates applied per second.

    ``TPS x Actions x Nodes x k``
    """
    return p.tps * p.actions * p.nodes * _factor(p, k)


def resident_objects(p: ModelParameters, k: int) -> float:
    """Expected objects materialised per node: ``k x DB_Size / Nodes``.

    Rendezvous hashing spreads each object's ``k`` replicas uniformly, so
    node stores shrink linearly in ``k / Nodes`` — the storage dividend
    that pays for partial replication.
    """
    return _factor(p, k) * p.db_size / p.nodes


# --------------------------------------------------------------------- #
# waits, deadlocks, reconciliations
# --------------------------------------------------------------------- #

def wait_rate(p: ModelParameters, k: int) -> float:
    """Partial analogue of equation 10: system-wide wait rate.

    ``TPS^2 x Action_Time x Actions^3 x Nodes^2 x k / (2 DB_Size)``

    Equation 10 scaled by ``k / Nodes`` — quadratic in nodes for fixed
    ``k`` instead of cubic.
    """
    return eager.total_wait_rate(p) * _factor(p, k) / p.nodes


def deadlock_rate(p: ModelParameters, k: int) -> float:
    """Partial analogue of equation 12 — the softened headline law.

    ``Partial_Eager_Deadlock_Rate
        = TPS^2 x Action_Time x Actions^5 x Nodes^2 x k / (4 DB_Size^2)``

    Equation 12 times ``k / Nodes``: a fixed replication factor buys one
    whole power of ``Nodes``.  Scaling ten-fold raises deadlocks a
    hundred-fold instead of the paper's thousand-fold.
    """
    return eager.total_deadlock_rate(p) * _factor(p, k) / p.nodes


def reconciliation_rate(p: ModelParameters, k: int) -> float:
    """Partial analogue of equation 14: lazy-group reconciliation rate.

    Reconciliations track the wait rate (every would-be wait is a
    reconciliation), so this is equation 14 scaled by ``k / Nodes``:

    ``TPS^2 x Action_Time x Actions^3 x Nodes^2 x k / (2 DB_Size)``
    """
    return wait_rate(p, k)


def softening(p: ModelParameters, k: int) -> float:
    """The partial-to-full danger ratio ``k / Nodes`` (uniform workload).

    Applies uniformly to waits, deadlocks, and reconciliations — the
    single dimensionless dividend of a placement layer.
    """
    return _factor(p, k) / p.nodes
