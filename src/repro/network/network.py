"""The network fabric connecting simulated nodes."""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.exceptions import ConfigurationError, SimulationError
from repro.network.message import Message
from repro.sim.protocol import EngineProtocol

Handler = Callable[[Message], Any]

#: returned by a handler (via :meth:`Network.park_inbound`) that refuses a
#: delivery: the node did not take the message
PARKED = object()


class Network:
    """Message fabric with delay, node disconnects, and store-and-forward.

    Each node registers one handler.  ``send`` stamps and routes a message:

    * both endpoints connected and reachable → deliver after
      ``message_delay`` (plus optional per-message ``extra_delay``),
    * sender disconnected → park in the sender's *outbound* queue,
    * receiver disconnected → park in the receiver's *inbound* queue,

    queues flush in FIFO order on reconnect, preserving the commit order that
    lazy-master propagation relies on.

    Handlers may be plain callables or generator functions; generator results
    are run as engine processes so protocol handlers can block on locks.
    """

    def __init__(
        self,
        engine: EngineProtocol,
        num_nodes: int,
        message_delay: float = 0.0,
    ):
        if num_nodes <= 0:
            raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
        if message_delay < 0:
            raise ConfigurationError("message_delay must be >= 0")
        self.engine = engine
        self.num_nodes = num_nodes
        self.message_delay = message_delay
        self._handlers: Dict[int, Handler] = {}
        self._connected: Set[int] = set(range(num_nodes))
        self._unreachable_pairs: Set[Tuple[int, int]] = set()
        self._outbound: Dict[int, Deque[Message]] = {}
        self._inbound: Dict[int, Deque[Message]] = {}
        self.fault_injector = None  # optional repro.faults.FaultInjector
        self._handler_proc_names: Dict[str, str] = {}  # kind -> process name
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_parked = 0
        self.in_flight = 0  # scheduled for delivery, not yet handled
        self._latency_total = 0.0
        self._latency_max = 0.0

    # ------------------------------------------------------------------ #
    # registration & topology
    # ------------------------------------------------------------------ #

    def register(self, node_id: int, handler: Handler) -> None:
        """Install ``handler`` as the message sink for ``node_id``."""
        self._check_node(node_id)
        self._handlers[node_id] = handler

    def install_fault_injector(self, injector) -> None:
        """Route every inter-node message through ``injector.route``.

        The injector sees messages about to go on the wire (both endpoints
        connected and reachable) and decides drops, duplicates, and extra
        latency.  Self-sends (retry timers) are exempt — they never touch a
        link.  One injector per network.
        """
        if self.fault_injector is not None:
            raise ConfigurationError("a fault injector is already installed")
        self.fault_injector = injector

    def bind_telemetry(self, telemetry) -> None:
        """Register this fabric's gauges on a telemetry handle.

        ``net_inflight`` is the congestion signal the paper's lazy schemes
        make interesting: replica updates queued on the wire.  ``net_parked``
        counts store-and-forward backlog (dark mobiles, open partitions).
        """
        telemetry.gauge("net_inflight", lambda: self.in_flight)
        telemetry.gauge("net_parked", self.parked_total)
        telemetry.counter_rate("message_rate",
                               lambda: self.messages_delivered)

    def is_connected(self, node_id: int) -> bool:
        return node_id in self._connected

    def disconnect(self, node_id: int) -> None:
        """Take ``node_id`` off the network (mobile node going dark)."""
        self._check_node(node_id)
        self._connected.discard(node_id)

    def reconnect(self, node_id: int) -> None:
        """Bring ``node_id`` back and flush parked traffic in FIFO order.

        Outbound messages the node queued while dark are sent first (the
        paper's step: the mobile node *sends* its deferred updates), then the
        inbound backlog is delivered to it.
        """
        self._check_node(node_id)
        if node_id in self._connected:
            return
        self._connected.add(node_id)
        self.flush_parked(node_id)

    def flush_parked(self, node_id: int) -> None:
        """Redeliver a connected node's parked traffic (outbound first).

        Inbound messages whose pair is still partitioned stay parked — they
        flush when that partition heals.  No-op for a disconnected node.
        """
        self._check_node(node_id)
        if node_id not in self._connected:
            return
        outbound = self._outbound.pop(node_id, None)
        if outbound:
            for msg in outbound:
                self._route(msg)
        inbound = self._inbound.pop(node_id, None)
        if inbound:
            for msg in inbound:
                if self.reachable(msg.src, msg.dst):
                    self._deliver_after_delay(msg)
                else:
                    self._inbound.setdefault(node_id, deque()).append(msg)

    def set_reachable(self, a: int, b: int, reachable: bool) -> None:
        """Partition override for the pair (a, b), symmetric and idempotent.

        ``set_reachable(a, b, x)`` and ``set_reachable(b, a, x)`` are the
        same call: the pair is stored unordered.  Healing (``True``) flushes
        messages that parked while the pair was cut, mirroring
        :meth:`reconnect` — convergence after heal depends on it.
        """
        self._check_node(a)
        self._check_node(b)
        if a == b:
            raise ConfigurationError(
                f"cannot change reachability of node {a} to itself"
            )
        pair = (min(a, b), max(a, b))
        if not reachable:
            self._unreachable_pairs.add(pair)
            return
        if pair not in self._unreachable_pairs:
            return
        self._unreachable_pairs.discard(pair)
        self._flush_healed(a)
        self._flush_healed(b)

    def _flush_healed(self, node_id: int) -> None:
        """Redeliver inbound messages whose pair just became reachable."""
        if node_id not in self._connected:
            return
        queue = self._inbound.get(node_id)
        if not queue:
            return
        flushing = [m for m in queue if self.reachable(m.src, m.dst)]
        if not flushing:
            return
        kept = deque(m for m in queue if not self.reachable(m.src, m.dst))
        if kept:
            self._inbound[node_id] = kept
        else:
            del self._inbound[node_id]
        for msg in flushing:
            self._deliver_after_delay(msg)

    def reachable(self, a: int, b: int) -> bool:
        pair = (min(a, b), max(a, b))
        return pair not in self._unreachable_pairs

    # ------------------------------------------------------------------ #
    # sending
    # ------------------------------------------------------------------ #

    def send(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Any,
        extra_delay: float = 0.0,
    ) -> Message:
        """Send ``payload`` from ``src`` to ``dst``.

        Never raises on disconnection — disconnected traffic is parked, which
        is the store-and-forward behaviour mobile replication requires.  Use
        :meth:`is_connected` first if the caller needs fail-fast semantics.
        """
        num_nodes = self.num_nodes
        if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
            self._check_node(src)  # raises for whichever end is out of range
            self._check_node(dst)
        now = self.engine.now
        msg = Message(
            src, dst, kind, payload, now, now + self.message_delay + extra_delay
        )
        self.messages_sent += 1
        if src not in self._connected:
            self._outbound.setdefault(src, deque()).append(msg)
            self.messages_parked += 1
            return msg
        self._route(msg)
        return msg

    def _route(self, msg: Message) -> None:
        dst = msg.dst
        # the partition probe runs only while some pair is cut
        if dst not in self._connected or (
            self._unreachable_pairs and not self.reachable(msg.src, dst)
        ):
            self._inbound.setdefault(dst, deque()).append(msg)
            self.messages_parked += 1
            return
        if self.fault_injector is not None and msg.src != dst:
            now = self.engine.now
            for fault_msg, extra in self.fault_injector.route(msg):
                if extra > 0.0:
                    if fault_msg.deliver_time < now:
                        fault_msg.deliver_time = now
                    fault_msg.deliver_time += extra
                self._deliver_after_delay(fault_msg)
            return
        self._deliver_after_delay(msg)

    def park_inbound(self, msg: Message) -> object:
        """Refuse a delivery: park ``msg`` again for :meth:`flush_parked`.

        A handler whose node cannot take traffic yet (a crashed node that a
        disconnect schedule reconnected) returns ``park_inbound(msg)``: the
        :data:`PARKED` it hands back keeps the refused delivery uncounted.
        """
        self._inbound.setdefault(msg.dst, deque()).append(msg)
        self.messages_parked += 1
        return PARKED

    def _deliver_after_delay(self, msg: Message) -> None:
        now = self.engine.now
        delay = msg.deliver_time - now
        if delay < 0.0:
            # a message parked past its nominal delivery time goes out promptly
            msg.deliver_time = now
            delay = 0.0
        self.in_flight += 1
        self.engine.schedule(delay, self._deliver, msg)

    def _deliver(self, msg: Message) -> None:
        self.in_flight -= 1
        dst = msg.dst
        if dst not in self._connected or (
            self._unreachable_pairs and not self.reachable(msg.src, dst)
        ):
            # the destination went dark while the message was in flight:
            # park it for redelivery at the next reconnect
            self._inbound.setdefault(dst, deque()).append(msg)
            self.messages_parked += 1
            return
        handler = self._handlers.get(dst)
        if handler is None:
            raise SimulationError(f"no handler registered for node {dst}")
        now = msg.deliver_time = self.engine.now
        result = handler(msg)
        if result is PARKED:
            return
        # counted once the node has taken the message
        self.messages_delivered += 1
        latency = now - msg.send_time
        self._latency_total += latency
        if latency > self._latency_max:
            self._latency_max = latency
        if result is not None and hasattr(result, "send"):
            # one interned name per message kind: the per-message id suffix
            # only ever got stripped again by the profiler's bucketing
            names = self._handler_proc_names
            name = names.get(msg.kind)
            if name is None:
                name = names[msg.kind] = f"handler-{msg.kind}"
            self.engine._spawn(result, name)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def mean_latency(self) -> float:
        """Mean delivery latency, including time parked while disconnected.

        The store-and-forward contribution is the measurable face of the
        paper's 'It is as though the message propagation time was 24 hours'
        observation about nightly-sync mobiles.
        """
        if self.messages_delivered == 0:
            return 0.0
        return self._latency_total / self.messages_delivered

    @property
    def max_latency(self) -> float:
        return self._latency_max

    def parked_outbound(self, node_id: int) -> int:
        return len(self._outbound.get(node_id, ()))

    def parked_inbound(self, node_id: int) -> int:
        return len(self._inbound.get(node_id, ()))

    def parked_total(self) -> int:
        """Messages currently waiting in store-and-forward queues."""
        return (sum(len(q) for q in self._outbound.values())
                + sum(len(q) for q in self._inbound.values()))

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise ConfigurationError(
                f"node id {node_id} out of range [0, {self.num_nodes})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Network nodes={self.num_nodes} sent={self.messages_sent} "
            f"delivered={self.messages_delivered}>"
        )
