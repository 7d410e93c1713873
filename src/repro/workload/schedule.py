"""Disconnect schedules for arbitrary replicated systems.

The lazy-group mobile analysis (equations 15-18) needs plain nodes that go
dark while their workload keeps committing locally, then flush deferred
replica updates on reconnect.  :class:`DisconnectScheduler` drives that
cycle for any :class:`~repro.replication.base.ReplicatedSystem`; the
two-tier-specific cycle (tentative work + five-step exchange) lives in
:class:`~repro.workload.mobile_cycle.MobileCycleDriver`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exceptions import ConfigurationError
from repro.replication.base import ReplicatedSystem
from repro.sim.process import Process


class DisconnectScheduler:
    """Cycles every node through disconnect/reconnect periods.

    The first disconnect of node *i* is offset by ``i * stagger``, with
    the nodes spread evenly across one disconnect period, so reconnect
    storms don't synchronize.

    Args:
        system: any replicated system.
        disconnect_time: how long each dark period lasts (Table 2's
            Disconnected_Time).
        connected_time: dwell time while connected between dark periods
            (Table 2's Time_Between_Disconnects; defaults to a brief sync
            window of one tenth of the disconnect time).
    """

    def __init__(
        self,
        system: ReplicatedSystem,
        disconnect_time: float,
        connected_time: Optional[float] = None,
    ):
        if disconnect_time <= 0:
            raise ConfigurationError("disconnect_time must be positive")
        self.system = system
        self.disconnect_time = disconnect_time
        self.connected_time = (
            connected_time if connected_time is not None else disconnect_time / 10
        )
        if self.connected_time < 0:
            raise ConfigurationError("connected_time must be >= 0")
        self.stagger = disconnect_time / max(1, system.num_nodes)
        self.cycles = 0
        self.processes: List[Process] = []

    def start(self, duration: float) -> List[Process]:
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        self.processes = [
            self.system.engine.process(
                self._cycle(node_id, duration),
                name=f"disconnect-cycle@{node_id}",
            )
            for node_id in range(self.system.num_nodes)
        ]
        return self.processes

    def _cycle(self, node_id: int, duration: float):
        engine = self.system.engine
        deadline = engine.now + duration
        offset = node_id * self.stagger
        if offset > 0:
            yield engine.timeout(offset)
        while engine.now < deadline:
            self.system.network.disconnect(node_id)
            yield engine.timeout(self.disconnect_time)
            self.system.network.reconnect(node_id)
            self.cycles += 1
            if self.connected_time > 0:
                yield engine.timeout(self.connected_time)
        # leave the node connected so the system can drain and converge
        return self.cycles
