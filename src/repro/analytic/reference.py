"""What the model predicts for each strategy: the one reference table.

The paper judges each scheme by one danger rate — eager deadlocks
(equation 12), lazy-group reconciliations (equation 14), lazy-master
deadlocks (equation 19) — and the reproduction judges every simulated run
against it.  :data:`REFERENCE` has one row per strategy naming

* the measured rate the strategy is judged on, and what it counts;
* its closed-form danger curve (``None`` for the certification
  strategies, which the paper's equations do not model);
* that curve's ``k``-aware analogue under a partial placement
  (:mod:`repro.analytic.partial`), or ``None`` where the rate does not
  depend on the replica fan-out (master copies deadlock at the master,
  whose count a placement does not change).

The Markov track (:mod:`repro.analytic.markov_strategies`) predicts the
same named rate from the strategy's chain.  :func:`predicted_rate` answers
``(strategy, params, k, model) -> (rate name, value)`` for both tracks, and
:func:`danger_curves` lists the curves ``repro danger`` prints; the
campaign's measured-vs-model column and the CLI read this table and
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analytic import eager, lazy_group, lazy_master, partial, two_tier
from repro.analytic.parameters import MODEL_TRACKS, ModelParameters
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Reference:
    """One strategy's modelled danger rate.

    ``curve`` names the closed-form curve (``"eager"`` for both eager
    strategies, which equation 12 does not tell apart) and ``equation``
    the paper's equation, if it has a number.
    """

    rate: str
    unit: str
    curve: Optional[str] = None
    equation: Optional[str] = None
    closed_form: Optional[Callable[[ModelParameters], float]] = None
    partial_form: Optional[Callable[[ModelParameters, int], float]] = None

    def curve_label(self) -> str:
        label = f"{self.curve} {self.unit}"
        return f"{label} (eq {self.equation})" if self.equation else label


_EAGER = Reference("deadlock_rate", "deadlocks/s", "eager", "12",
                   eager.total_deadlock_rate, partial.deadlock_rate)

#: strategy -> what the model predicts for it, in ``STRATEGIES`` order
REFERENCE: Dict[str, Reference] = {
    "deferred-update": Reference("abort_rate", "cert aborts/s"),
    "eager-group": _EAGER,
    "eager-master": _EAGER,
    "lazy-group": Reference(
        "reconciliation_rate", "reconciliations/s", "lazy-group", "14",
        lazy_group.reconciliation_rate, partial.reconciliation_rate,
    ),
    "lazy-master": Reference("deadlock_rate", "deadlocks/s", "lazy-master",
                             "19", lazy_master.deadlock_rate),
    "scar": Reference("abort_rate", "validation aborts/s"),
    "two-tier": Reference("deadlock_rate", "base deadlocks/s", "two-tier",
                          None, two_tier.base_deadlock_rate),
}


def predicted_rate(
    strategy: str,
    params: ModelParameters,
    k: Optional[int] = None,
    model: str = "closed-form",
) -> Tuple[Optional[str], Optional[float]]:
    """``(rate name, predicted value)`` for one strategy under a track.

    ``closed-form`` evaluates the paper's equation, or its partial
    analogue when a replication factor ``k`` is given and the rate depends
    on the fan-out; ``markov`` solves the strategy's transaction-state
    chain.  ``(None, None)`` when the closed forms do not model the
    strategy.
    """
    if model not in MODEL_TRACKS:
        raise ConfigurationError(
            f"unknown model track {model!r}; expected one of {MODEL_TRACKS}"
        )
    try:
        row = REFERENCE[strategy]
    except KeyError:
        raise ConfigurationError(
            f"no reference rate for strategy {strategy!r}; "
            f"expected one of {tuple(REFERENCE)}"
        )
    if model == "markov":
        from repro.analytic.markov_strategies import predict

        return row.rate, predict(strategy, params, k).rate(row.rate)
    if row.closed_form is None:
        return None, None
    if k is not None and row.partial_form is not None:
        return row.rate, row.partial_form(params, k)
    return row.rate, row.closed_form(params)


def danger_curves(
    model: str, k: Optional[int]
) -> List[Tuple[str, Callable[[ModelParameters], float]]]:
    """``(label, rate of the parameters)`` for each curve ``repro danger``
    prints.

    The Markov track has one curve per strategy.  The closed forms have one
    per distinct equation, followed, under a placement, by the partial
    analogue of each that depends on ``k``.
    """
    if model == "markov":
        suffix = "" if k is None else f" (k={k})"
        return [
            (f"{strategy} {row.unit} (markov){suffix}",
             lambda p, s=strategy: predicted_rate(s, p, k, model)[1])
            for strategy, row in REFERENCE.items()
        ]
    rows = [row for row in REFERENCE.values() if row.closed_form is not None]
    curves = {row.curve_label(): row.closed_form for row in rows}
    if k is not None:
        curves.update(
            (f"partial {row.curve} {row.unit} (k={k})",
             lambda p, fn=row.partial_form: fn(p, k))
            for row in rows if row.partial_form is not None
        )
    return list(curves.items())
