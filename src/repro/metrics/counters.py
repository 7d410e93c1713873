"""Raw event counters collected during a simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, FrozenSet


@dataclass(slots=True)
class Metrics:
    """System-wide counters for one simulation run.

    Counter semantics (all counts, not rates):

    * ``waits`` — lock requests that blocked (the paper's PW events).
    * ``deadlocks`` — victims aborted by the deadlock detector.
    * ``reconciliations`` — lazy-group replica updates rejected by the
      timestamp check (Figure 4: "dangerous" updates needing reconciliation).
    * ``stale_updates`` — lazy-master replica updates skipped because the
      replica already had a newer timestamp (harmless, by design).
    * ``commits`` / ``aborts`` — user transactions (replica-update
      housekeeping transactions are tracked separately).
    * ``replica_updates`` — replica-update transactions applied.
    * ``tentative_committed`` — tentative transactions committed at a mobile
      node while disconnected (two-tier).
    * ``tentative_accepted`` / ``tentative_rejected`` — outcomes of base
      re-execution of tentative transactions (two-tier).
    * ``actions`` — individual update actions performed anywhere (eq. 8's
      action rate).
    * ``restarts`` — deadlock victims resubmitted.
    """

    #: ``extra`` names the simulator itself uses; the whitelist strict mode
    #: checks ad-hoc bumps against.
    KNOWN_EXTRAS: ClassVar[FrozenSet[str]] = frozenset(
        {
            "rejected_node_down", "crashes", "recoveries", "migrations",
            # certification/validation aborts (deferred-update, scar): a
            # transaction whose read/write set went stale before the
            # decision point — aborted cleanly, never a lost update
            "cert_aborts",
        }
    )
    #: declared counter field names, cached so :meth:`bump` is a frozenset
    #: membership test plus one attribute store (filled in after the class
    #: body, once the dataclass fields exist)
    COUNTER_NAMES: ClassVar[FrozenSet[str]] = frozenset()

    waits: int = 0
    deadlocks: int = 0
    reconciliations: int = 0
    stale_updates: int = 0
    commits: int = 0
    aborts: int = 0
    replica_updates: int = 0
    tentative_committed: int = 0
    tentative_accepted: int = 0
    tentative_rejected: int = 0
    actions: int = 0
    restarts: int = 0
    messages: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    #: When True, :meth:`bump` rejects names that are neither dataclass
    #: counters nor in :data:`KNOWN_EXTRAS` — a typo'd ``bump("comits")``
    #: raises instead of silently growing ``extra``.  Off by default so
    #: exploratory extensions stay cheap.
    strict: bool = False

    def bump(self, name: str, amount: float = 1) -> None:
        """Increment a counter by name (supports ad-hoc ``extra`` counters)."""
        if name in self.COUNTER_NAMES:
            setattr(self, name, getattr(self, name) + amount)
            return
        if self.strict and name not in self.KNOWN_EXTRAS:
            raise KeyError(
                f"unknown counter {name!r} (strict mode); declared counters: "
                f"{sorted(self.as_dict())} plus extras {sorted(self.KNOWN_EXTRAS)}"
            )
        self.extra[name] = self.extra.get(name, 0) + amount

    def as_dict(self) -> Dict[str, float]:
        """Flat name -> count mapping, including extras."""
        out = {
            "waits": self.waits,
            "deadlocks": self.deadlocks,
            "reconciliations": self.reconciliations,
            "stale_updates": self.stale_updates,
            "commits": self.commits,
            "aborts": self.aborts,
            "replica_updates": self.replica_updates,
            "tentative_committed": self.tentative_committed,
            "tentative_accepted": self.tentative_accepted,
            "tentative_rejected": self.tentative_rejected,
            "actions": self.actions,
            "restarts": self.restarts,
            "messages": self.messages,
        }
        out.update(self.extra)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        busy = {k: v for k, v in self.as_dict().items() if v}
        return f"Metrics({busy})"


Metrics.COUNTER_NAMES = frozenset(
    f.name for f in fields(Metrics) if f.name not in ("extra", "strict")
)
