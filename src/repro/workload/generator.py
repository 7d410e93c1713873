"""Open-loop workload driver: Poisson arrivals per node.

"Each node originates a fixed number of transactions per second" — modeled
as an independent Poisson process of rate ``tps`` at every node (the open
system matching the model's constant-arrival-rate assumption; see the
section-2 footnote about lightly loaded nodes).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.replication.base import ReplicatedSystem
from repro.sim.process import Process
from repro.workload.profiles import TransactionProfile


class WorkloadGenerator:
    """Drives a replicated system with the Table-2 model workload.

    Example::

        system = LazyMasterSystem(SystemSpec(num_nodes=4, db_size=200))
        profile = uniform_update_profile(actions=4, db_size=200)
        workload = WorkloadGenerator(system, profile, tps=5.0)
        workload.start(duration=100.0)
        system.run()
        print(system.metrics)
    """

    def __init__(
        self,
        system: ReplicatedSystem,
        profile: TransactionProfile,
        tps: float,
        node_ids: Optional[Sequence[int]] = None,
    ):
        if tps <= 0:
            raise ConfigurationError(f"tps must be positive, got {tps}")
        self.system = system
        self.profile = profile
        self.tps = tps
        self.node_ids = (
            list(node_ids) if node_ids is not None else list(range(system.num_nodes))
        )
        self.submitted = 0
        self.processes: List[Process] = []

    def start(self, duration: float) -> List[Process]:
        """Spawn one arrival process per node, generating for ``duration``.

        Transactions submitted near the end may still be running when the
        engine drains; run the engine to quiescence before reading final
        convergence state.
        """
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        self.processes = [
            self.system.engine.process(
                self._arrivals(node_id, duration), name=f"workload@{node_id}"
            )
            for node_id in self.node_ids
        ]
        return self.processes

    def _arrivals(self, node_id: int, duration: float):
        engine = self.system.engine
        arrival_rng = self.system.rng.stream(f"arrivals/{node_id}")
        op_rng = self.system.rng.stream(f"ops/{node_id}")
        deadline = engine.now + duration
        while True:
            gap = arrival_rng.expovariate(self.tps)
            if engine.now + gap >= deadline:
                return self.submitted
            yield engine.timeout(gap)
            ops = self.profile.build(op_rng)
            self.system.submit(node_id, ops)
            self.submitted += 1
