"""Acceptance criteria for re-executed base transactions.

"The base transaction has an acceptance criterion: a test the resulting
outputs must pass for the slightly different base transaction results to be
acceptable. To give some sample acceptance criteria:

* The bank balance must not go negative.
* The price quote can not exceed the tentative quote.
* The seats must be aisle seats."

A criterion inspects the *outputs* of the tentative execution and of the
base re-execution (the written values, in operation order) and answers
whether the base outcome is acceptable.  Returning False aborts the base
transaction and sends the mobile node a diagnostic.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple


class AcceptanceCriterion:
    """Decides whether a base re-execution's results are acceptable.

    ``check`` returns ``(accepted, diagnostic)``; the diagnostic travels back
    to the mobile node on rejection ("the originating node and person who
    generated the transaction are informed it failed and why it failed").
    """

    name = "abstract"

    def check(
        self,
        tentative_outputs: Sequence[Any],
        base_outputs: Sequence[Any],
    ) -> Tuple[bool, str]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class AlwaysAccept(AcceptanceCriterion):
    """Accept any successful base execution.

    "If the tentative transaction completes successfully and passes the
    acceptance test, then the replication system assumes all is well" — for
    fully commutative transactions the base result is always acceptable, and
    this criterion realizes the zero-reconciliation property.
    """

    name = "always-accept"

    def check(self, tentative_outputs, base_outputs):
        return True, ""


class IdenticalOutputs(AcceptanceCriterion):
    """Strictest test: base outputs must equal tentative outputs.

    "If the acceptance criteria requires the base and tentative transaction
    have identical outputs, then subsequent transactions reading tentative
    results written by T will fail too" — the paper calls this "probably too
    pessimistic", and the benchmarks show why: its rejection rate tracks the
    lazy-group collision rate.
    """

    name = "identical-outputs"

    def check(self, tentative_outputs, base_outputs):
        if list(tentative_outputs) == list(base_outputs):
            return True, ""
        return False, (
            f"outputs differ: tentative={list(tentative_outputs)!r} "
            f"base={list(base_outputs)!r}"
        )


class NonNegativeOutputs(AcceptanceCriterion):
    """"The bank balance must not go negative."

    Accepts any base execution whose written values are all >= 0 — the
    balance may *differ* from the tentative one ("It is fine if the checking
    account balance is different when the transaction is reprocessed"), it
    just must not overdraw.
    """

    name = "non-negative"

    def check(self, tentative_outputs, base_outputs):
        for value in base_outputs:
            try:
                negative = value < 0
            except TypeError:
                continue
            if negative:
                return False, f"balance went negative: {value!r}"
        return True, ""


class PriceNotAbove(AcceptanceCriterion):
    """"The price quote can not exceed the tentative quote."

    Each base output must not exceed the corresponding tentative output by
    more than ``tolerance`` (absolute).
    """

    name = "price-not-above"

    def __init__(self, tolerance: float = 0.0):
        self.tolerance = tolerance

    def check(self, tentative_outputs, base_outputs):
        for quoted, actual in zip(tentative_outputs, base_outputs):
            try:
                exceeded = actual > quoted + self.tolerance
            except TypeError:
                continue
            if exceeded:
                return False, (
                    f"price {actual!r} exceeds tentative quote {quoted!r}"
                    + (f" (+{self.tolerance})" if self.tolerance else "")
                )
        return True, ""


class WithinTolerance(AcceptanceCriterion):
    """Base outputs within a relative tolerance of the tentative ones."""

    name = "within-tolerance"

    def __init__(self, relative: float = 0.05):
        if relative < 0:
            raise ValueError("relative tolerance must be >= 0")
        self.relative = relative

    def check(self, tentative_outputs, base_outputs):
        for expected, actual in zip(tentative_outputs, base_outputs):
            try:
                scale = max(abs(expected), 1e-12)
                off = abs(actual - expected) / scale > self.relative
            except TypeError:
                continue
            if off:
                return False, (
                    f"base output {actual!r} deviates more than "
                    f"{self.relative:.0%} from tentative {expected!r}"
                )
        return True, ""


class PredicateCriterion(AcceptanceCriterion):
    """Application-specific test over each base output value.

    "These acceptance criteria are application specific."  Example — the
    paper's aisle seats::

        aisle = PredicateCriterion(lambda seat: seat[1] in "CD",
                                   name="aisle-seats",
                                   describe="seat must be an aisle seat")
    """

    def __init__(
        self,
        predicate: Callable[[Any], bool],
        name: str = "predicate",
        describe: str = "predicate failed",
    ):
        self.predicate = predicate
        self.name = name
        self.describe = describe

    def check(self, tentative_outputs, base_outputs):
        for value in base_outputs:
            if not self.predicate(value):
                return False, f"{self.describe}: {value!r}"
        return True, ""


class OnOutputs(AcceptanceCriterion):
    """Project a criterion onto selected output positions.

    Transactions often mix concerns — a sales order carries a price output
    and a stock output — and each acceptance rule applies to its own slice::

        combine(OnOutputs(PriceNotAbove(), [0]),
                OnOutputs(NonNegativeOutputs(), [1]))
    """

    def __init__(self, criterion: AcceptanceCriterion, indices: Sequence[int]):
        self.criterion = criterion
        self.indices = list(indices)
        self.name = f"{criterion.name}@{self.indices}"

    def _project(self, outputs: Sequence[Any]) -> List[Any]:
        return [outputs[i] for i in self.indices if i < len(outputs)]

    def check(self, tentative_outputs, base_outputs):
        return self.criterion.check(
            self._project(tentative_outputs), self._project(base_outputs)
        )


def combine(*criteria: AcceptanceCriterion) -> AcceptanceCriterion:
    """All criteria must accept (logical AND), first diagnostic wins."""

    class _Combined(AcceptanceCriterion):
        name = "+".join(c.name for c in criteria)

        def __init__(self):
            # instance state, so a provenance / cache key sees the parts
            self.criteria = criteria

        def check(self, tentative_outputs, base_outputs):
            for criterion in self.criteria:
                ok, why = criterion.check(tentative_outputs, base_outputs)
                if not ok:
                    return False, f"[{criterion.name}] {why}"
            return True, ""

    return _Combined()
