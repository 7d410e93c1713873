"""Reconciliation rules for lazy-group conflicts.

"Oracle 7 provides a choice of twelve reconciliation rules to merge
conflicting updates. In addition, users can program their own reconciliation
rules. These rules give priority [to] certain sites, or time priority, or
value priority, or they merge commutative updates." (section 6)

A rule decides what happens when a replica update arrives whose ``old_ts``
does not match the replica's current timestamp (Figure 4's "dangerous"
case).  Outcomes:

* ``APPLY`` — install the incoming version anyway,
* ``DISCARD`` — keep the local version, drop the incoming one,
* ``MERGE`` — reapply the incoming *operation* on top of the local value
  (only sound for commutative operations),
* ``DEFER`` — leave the conflict unresolved for a human; the replica keeps
  its value and the system diverges — this is the path to system delusion.

Every conflict is counted as a reconciliation regardless of outcome; the
rules differ in whether the database still converges and whether updates are
lost.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.storage.record import Record
from repro.storage.versioning import Timestamp

if TYPE_CHECKING:  # base imports Outcome from here; annotations only
    from repro.replication.base import ReplicaUpdate


class Outcome(enum.Enum):
    APPLY = "apply"
    DISCARD = "discard"
    MERGE = "merge"
    DEFER = "defer"


class ReconciliationRule:
    """Base class: decide the fate of a conflicting replica update."""

    name = "abstract"

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        raise NotImplementedError


class LatestTimestampWins(ReconciliationRule):
    """Time priority: the newer timestamp wins (Lotus Notes replace).

    Converges, but loses updates — "Timestamp schemes are vulnerable to lost
    updates" — which the lost-update benchmark quantifies.
    """

    name = "latest-timestamp-wins"

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        return Outcome.APPLY if update.new_ts > local.ts else Outcome.DISCARD


class SitePriorityWins(ReconciliationRule):
    """Site priority: the update from the higher-priority node wins ties.

    ``priorities`` maps node id -> rank (higher rank wins).  Falls back to
    timestamp order between equal-priority sites so the rule is total.
    """

    name = "site-priority"

    def __init__(self, priorities: Dict[int, int]):
        self.priorities = dict(priorities)

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        local_rank = self.priorities.get(local.ts.node_id, 0)
        update_rank = self.priorities.get(update.new_ts.node_id, 0)
        if update_rank != local_rank:
            return Outcome.APPLY if update_rank > local_rank else Outcome.DISCARD
        return (
            Outcome.APPLY if update.new_ts > local.ts else Outcome.DISCARD
        )


class ValuePriorityWins(ReconciliationRule):
    """Value priority: keep whichever version has the larger key.

    ``key`` extracts a comparable from the value (default: identity) —
    e.g. keep the highest bid, the latest sequence number.
    """

    name = "value-priority"

    def __init__(self, key: Callable[[Any], Any] = lambda v: v):
        self.key = key

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        try:
            if self.key(update.new_value) > self.key(local.value):
                return Outcome.APPLY
            return Outcome.DISCARD
        except TypeError:
            # incomparable values: fall back to time priority
            return (
                Outcome.APPLY if update.new_ts > local.ts else Outcome.DISCARD
            )


class MergeCommutative(ReconciliationRule):
    """Merge rule: reapply commutative operations instead of values.

    "they merge commutative updates" — sound only when the shipped operation
    commutes; otherwise falls back to time priority.
    """

    name = "merge-commutative"

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        if update.op is not None and update.op.commutative:
            return Outcome.MERGE
        return Outcome.APPLY if update.new_ts > local.ts else Outcome.DISCARD


class EarliestTimestampWins(ReconciliationRule):
    """First-writer-wins: the *older* committed version is kept.

    Oracle's "earliest timestamp" rule — appropriate when the first booking,
    first bid, or first registration should stand.  Converges because both
    replicas resolve any pair the same way.
    """

    name = "earliest-timestamp-wins"

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        if local.ts == Timestamp.ZERO:
            # never-written local value: the incoming committed write stands
            return Outcome.APPLY
        return Outcome.DISCARD if local.ts < update.new_ts else Outcome.APPLY


class AdditiveDifference(ReconciliationRule):
    """Oracle's additive rule: apply the update's *delta*, not its value.

    The incoming message carries the root's before/after images; the
    difference ``new - old`` is re-applied to the current local value, so
    concurrent numeric updates merge instead of clobbering.  Falls back to
    time priority for non-numeric values.
    """

    name = "additive-difference"

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        return Outcome.MERGE  # LazyGroupSystem merges via op when possible


class MinimumWins(ReconciliationRule):
    """Value rule: the smaller value survives (e.g. lowest quoted price)."""

    name = "minimum-wins"

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        try:
            if update.new_value < local.value:
                return Outcome.APPLY
            return Outcome.DISCARD
        except TypeError:
            return Outcome.APPLY if update.new_ts > local.ts else Outcome.DISCARD


class MaximumWins(ValuePriorityWins):
    """Alias with an explicit name: the larger value survives."""

    name = "maximum-wins"


class DiscardIncoming(ReconciliationRule):
    """Local always wins; the incoming conflicting update is dropped.

    Unlike :class:`ManualReconciliation` this is a *decision*, not a
    deferral — but because the two replicas each keep their own version, it
    does **not** converge on its own; it suits a designated-primary replica
    whose peers overwrite (pair with :class:`OverwriteIncoming` there).
    """

    name = "discard-incoming"

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        return Outcome.DISCARD


class OverwriteIncoming(ReconciliationRule):
    """Remote always wins; the local conflicting version is overwritten."""

    name = "overwrite-incoming"

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        return Outcome.APPLY


class ManualReconciliation(ReconciliationRule):
    """No automatic rule: conflicts pile up for a person to fix.

    This models the paper's grim default — "a program or person must
    reconcile conflicting transactions" — and, at scale, produces the
    divergence the paper calls system delusion.
    """

    name = "manual"

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        return Outcome.DEFER


class CustomRule(ReconciliationRule):
    """User-programmed rule (Oracle 7's escape hatch): any callable
    ``(local_record, update) -> Outcome``."""

    name = "custom"

    def __init__(self, fn: Callable[[Record, ReplicaUpdate], Outcome],
                 name: Optional[str] = None):
        self.fn = fn
        if name:
            self.name = name

    def resolve(self, local: Record, update: ReplicaUpdate) -> Outcome:
        return self.fn(local, update)


def default_rule() -> ReconciliationRule:
    """The convergent default used by LazyGroupSystem."""
    return LatestTimestampWins()
