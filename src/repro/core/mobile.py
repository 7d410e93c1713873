"""The mobile node: tentative execution while disconnected.

"Mobile nodes are disconnected much of the time. They store a replica of the
database and may originate tentative transactions. A mobile node may be the
master of some data items."

A :class:`MobileNode` wraps its replica (the system-owned
:class:`~repro.replication.base.NodeContext`, holding the *master versions*)
with a :class:`~repro.core.tentative.TentativeStore` overlay (the *tentative
versions*) and a log of committed-but-tentative transactions awaiting base
re-execution.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence

from repro.core.acceptance import AcceptanceCriterion, AlwaysAccept
from repro.core.tentative import (
    TentativeStatus,
    TentativeStore,
    TentativeTransaction,
)
from repro.exceptions import InvalidStateError
from repro.sim.events import SimEvent
from repro.txn.ops import Operation


class MobileNode:
    """One mobile participant in a :class:`~repro.core.protocol.TwoTierSystem`.

    Not constructed directly — the system builds one per mobile id.
    """

    def __init__(self, system, node_id: int, host_base_id: int):
        self.system = system
        self.node_id = node_id
        self.host_base_id = host_base_id
        self.context = system.nodes[node_id]
        self.tentative = TentativeStore(self.context.store)
        self.log: List[TentativeTransaction] = []
        self.notices: List[tuple] = []
        self._notice_events: Dict[int, SimEvent] = {}  # awaited, by seq
        self._seq = itertools.count(1)

    # ------------------------------------------------------------------ #
    # connectivity
    # ------------------------------------------------------------------ #

    @property
    def connected(self) -> bool:
        return self.system.network.is_connected(self.node_id)

    # ------------------------------------------------------------------ #
    # reads: the mobile user sees tentative values
    # ------------------------------------------------------------------ #

    def read(self, oid: int) -> Any:
        """Tentative view: overlay value if present, else master version."""
        return self.tentative.value(oid)

    def master_value(self, oid: int) -> Any:
        """The best known master version (possibly stale while dark)."""
        return self.context.store.value(oid)

    # ------------------------------------------------------------------ #
    # tentative execution
    # ------------------------------------------------------------------ #

    def run_tentative(
        self,
        ops: Sequence[Operation],
        acceptance: Optional[AcceptanceCriterion] = None,
        label: str = "",
        overlay: Optional[TentativeStore] = None,
        log: bool = True,
    ):
        """Generator: execute a tentative transaction at this node.

        Validates the scope rule, applies each operation to the tentative
        versions (consuming ``Action_Time`` per action), and commits the
        transaction to the tentative log for later base re-execution.
        Returns the :class:`TentativeTransaction`.

        ``overlay`` substitutes a private :class:`TentativeStore` for the
        node-wide one, and ``log=False`` skips appending to :attr:`log` —
        together they let the live gateway run many concurrent independent
        transactions through one mobile without cross-contaminating
        tentative values or growing the log without bound.  Sim-mode
        callers use the defaults and see the original batch semantics.
        """
        criterion = acceptance if acceptance is not None else AlwaysAccept()
        ops = list(ops)
        self.system.scope.validate(ops, self.node_id)
        store = overlay if overlay is not None else self.tentative
        record = TentativeTransaction(
            seq=next(self._seq),
            mobile_id=self.node_id,
            ops=ops,
            acceptance=criterion,
            label=label,
        )
        engine = self.system.engine
        for op in ops:
            if self.system.action_time > 0:
                yield engine.timeout(self.system.action_time)
            output = store.apply(op)
            if not op.is_read:
                record.tentative_outputs.append(output)
        record.commit_time = engine.now
        if log:
            self.log.append(record)
        self.system.metrics.tentative_committed += 1
        return record

    def submit_tentative(
        self,
        ops: Sequence[Operation],
        acceptance: Optional[AcceptanceCriterion] = None,
        label: str = "",
    ):
        """Spawn :meth:`run_tentative` as a simulation process."""
        return self.system.engine.process(
            self.run_tentative(ops, acceptance, label),
            name=f"tentative@{self.node_id}",
        )

    # ------------------------------------------------------------------ #
    # log inspection
    # ------------------------------------------------------------------ #

    @property
    def pending_transactions(self) -> List[TentativeTransaction]:
        return [t for t in self.log if t.pending]

    @property
    def rejected_transactions(self) -> List[TentativeTransaction]:
        return [t for t in self.log if t.status is TentativeStatus.REJECTED]

    @property
    def accepted_transactions(self) -> List[TentativeTransaction]:
        return [t for t in self.log if t.status is TentativeStatus.ACCEPTED]

    def notice_event(self, seq: int) -> SimEvent:
        """An engine event that succeeds with tentative ``seq``'s notice
        ``(seq, status, why)`` when it arrives.  A notice that is waited
        for goes to its waiter instead of onto :attr:`notices`."""
        event = self._notice_events[seq] = self.system.engine.event(
            "tentative-notice"
        )
        return event

    def record_notice(self, seq: int, status: TentativeStatus, why: str) -> None:
        """Reconnect step 5: 'Accepts notice of the success or failure of
        each tentative transaction.'"""
        event = self._notice_events.pop(seq, None)
        if event is not None:
            event.succeed((seq, status, why))
        else:
            self.notices.append((seq, status, why))

    def require_disconnected(self) -> None:
        if self.connected:
            raise InvalidStateError(
                f"mobile node {self.node_id} is connected; tentative execution "
                "is intended for disconnected operation (connected mobiles "
                "submit base transactions directly)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MobileNode {self.node_id} host={self.host_base_id} "
            f"{'up' if self.connected else 'dark'} "
            f"pending={len(self.pending_transactions)}>"
        )
