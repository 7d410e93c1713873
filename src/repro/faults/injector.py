"""Executes a :class:`~repro.faults.plan.FaultPlan` against a live system.

The injector has two halves:

* a **timeline** — partitions and crashes are scheduled on the engine at
  plan-specified instants when :meth:`FaultInjector.install` runs, so two
  runs of the same plan cut and heal at identical simulated times;
* a **wire tap** — the network hands every inter-node message about to go
  on a live link to :meth:`FaultInjector.route`, which decides drop /
  duplicate / extra latency from seeded coin flips.

Determinism contract: all randomness comes from
``system.rng.spawn(f"faults/{plan.fault_seed}")`` — a *forked* child of the
experiment's master source.  Forking means fault draws never advance any
workload stream, so changing ``fault_seed`` re-rolls the faults while the
offered load stays byte-identical.  Within the fault stream the number of
draws per message is fixed by the plan's constants (a probability of zero
draws nothing), so fault timelines are stable too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.network.message import Message


class FaultInjector:
    """Wires a :class:`FaultPlan` into a replicated system.

    Args:
        system: any :class:`~repro.replication.base.ReplicatedSystem`; a
            system that installs its own injector passes its weak proxy,
            so the injector (kept by the network) is no path back to it.
        plan: the fault schedule to execute.

    Call :meth:`install` once, before the workload starts.
    """

    def __init__(self, system, plan: FaultPlan):
        self.system = system
        self.plan = plan
        self._rng = system.rng.spawn(f"faults/{plan.fault_seed}").stream("link")
        self._installed = False
        # observability counters, exported via stats()
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.partitions_started = 0
        self.partitions_healed = 0
        self.crashes = 0
        self.recoveries = 0

    # ------------------------------------------------------------------ #
    # timeline
    # ------------------------------------------------------------------ #

    def install(self) -> "FaultInjector":
        """Register the wire tap and schedule the partition/crash timeline."""
        if self._installed:
            raise ConfigurationError("fault injector already installed")
        self._installed = True
        network = self.system.network
        if not self.plan.link.empty:
            network.install_fault_injector(self)
        engine = self.system.engine
        for partition in self.plan.partitions:
            engine.schedule_at(
                partition.start, self._start_partition, partition
            )
            if partition.heals:
                engine.schedule_at(
                    partition.heal_time, self._heal_partition, partition
                )
        for crash in self.plan.crashes:
            engine.schedule_at(crash.at, self._crash, crash)
            if crash.recovers:
                engine.schedule_at(crash.recovery_time, self._recover, crash)
        return self

    def _start_partition(self, partition) -> None:
        for a in partition.left:
            for b in partition.right:
                self.system.network.set_reachable(a, b, False)
        self.partitions_started += 1
        self.system._trace(
            "partition", phase="start",
            left=list(partition.left), right=list(partition.right),
        )
        self._mark("partition-start",
                   left=list(partition.left), right=list(partition.right))

    def _heal_partition(self, partition) -> None:
        for a in partition.left:
            for b in partition.right:
                self.system.network.set_reachable(a, b, True)
        self.partitions_healed += 1
        self.system._trace(
            "partition", phase="heal",
            left=list(partition.left), right=list(partition.right),
        )
        self._mark("partition-heal",
                   left=list(partition.left), right=list(partition.right))

    def _crash(self, crash) -> None:
        self.system.crash_node(crash.node)
        self.crashes += 1
        self._mark("crash", node=crash.node)

    def _recover(self, crash) -> None:
        self.system.recover_node(crash.node)
        self.recoveries += 1
        self._mark("recover", node=crash.node)

    def _mark(self, label: str, **detail) -> None:
        """Pin a fault-timeline mark onto the telemetry series, if any."""
        telemetry = getattr(self.system, "telemetry", None)
        if telemetry is not None:
            telemetry.mark(self.system.engine.now, label, **detail)

    # ------------------------------------------------------------------ #
    # wire tap
    # ------------------------------------------------------------------ #

    def route(self, msg: Message) -> List[Tuple[Message, float]]:
        """Decide the fate of one on-the-wire message.

        Returns ``[(message, extra_delay), ...]`` — empty for a drop, two
        entries for a duplicate.  Draw counts per message depend only on
        which plan probabilities are non-zero, never on draw outcomes, so
        the fault timeline is a pure function of (seed, plan).
        """
        link = self.plan.link
        if link.drop > 0.0 and self._rng.random() < link.drop:
            self.dropped += 1
            self.system._trace(
                "fault", kind="drop", msg_kind=msg.kind,
                src=msg.src, dst=msg.dst,
            )
            return []
        deliveries = [(msg, self._extra_delay(link))]
        if link.duplicate > 0.0 and self._rng.random() < link.duplicate:
            clone = Message(
                src=msg.src, dst=msg.dst, kind=msg.kind,
                payload=msg.payload, send_time=msg.send_time,
            )
            clone.deliver_time = msg.deliver_time
            deliveries.append((clone, self._extra_delay(link)))
            self.duplicated += 1
            self.system._trace(
                "fault", kind="duplicate", msg_kind=msg.kind,
                src=msg.src, dst=msg.dst,
            )
        return deliveries

    def _extra_delay(self, link) -> float:
        extra = 0.0
        if link.jitter > 0.0:
            extra += self._rng.uniform(0.0, link.jitter)
        if link.reorder > 0.0:
            # two draws, unconditionally, to keep draw counts fixed
            coin = self._rng.random()
            window = self._rng.uniform(0.0, link.reorder_window)
            if coin < link.reorder:
                extra += window
        if extra > 0.0:
            self.delayed += 1
        return extra

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "partitions_started": self.partitions_started,
            "partitions_healed": self.partitions_healed,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultInjector dropped={self.dropped} "
            f"duplicated={self.duplicated} crashes={self.crashes}>"
        )
