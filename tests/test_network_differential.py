"""The network fabric against the routing rules it replaced.

:class:`ReferenceNetwork` below is the previous fabric's routing, kept here
as the reference: every send checks both endpoints separately, every route
and delivery builds the ``(min, max)`` pair and probes the partition set
whether or not any pair is cut, and the delay is ``max(0, deliver - now)``.
Its one departure from the old code is the counting fix both now share: a
delivery the receiving handler refuses (``park_inbound``) is not counted.

Hypothesis drives the same random script — sends (self-sends, extra delays,
sends from a dark node, out-of-range ids), disconnects, reconnects,
partitions, heals, crash-parks and recoveries, with and without a wire tap
that drops, duplicates and delays — through both, and after every step the
delivery log (order, time, destination, latency), the parked inbound and
outbound queues and the sent / parked / delivered / in-flight counters and
latency statistics must be identical.
"""

from collections import deque
from typing import Any, Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.network import Network
from repro.network.message import Message
from repro.sim import Engine

_REF_PARKED = object()


class ReferenceNetwork:
    """The previous fabric's routing and parking, logic unchanged."""

    def __init__(self, engine, num_nodes, message_delay=0.0):
        self.engine = engine
        self.num_nodes = num_nodes
        self.message_delay = message_delay
        self._handlers: Dict[int, Any] = {}
        self._connected: Set[int] = set(range(num_nodes))
        self._unreachable_pairs: Set[Tuple[int, int]] = set()
        self._outbound: Dict[int, deque] = {}
        self._inbound: Dict[int, deque] = {}
        self.fault_injector = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_parked = 0
        self.in_flight = 0
        self._latency_total = 0.0
        self._latency_max = 0.0

    def register(self, node_id, handler):
        self._check_node(node_id)
        self._handlers[node_id] = handler

    def install_fault_injector(self, injector):
        self.fault_injector = injector

    def disconnect(self, node_id):
        self._check_node(node_id)
        self._connected.discard(node_id)

    def reconnect(self, node_id):
        self._check_node(node_id)
        if node_id in self._connected:
            return
        self._connected.add(node_id)
        self.flush_parked(node_id)

    def is_connected(self, node_id):
        return node_id in self._connected

    def flush_parked(self, node_id):
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

    def set_reachable(self, a, b, reachable):
        self._check_node(a)
        self._check_node(b)
        if a == b:
            raise ConfigurationError("self pair")
        pair = (min(a, b), max(a, b))
        if not reachable:
            self._unreachable_pairs.add(pair)
            return
        if pair not in self._unreachable_pairs:
            return
        self._unreachable_pairs.discard(pair)
        self._flush_healed(a)
        self._flush_healed(b)

    def _flush_healed(self, node_id):
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

    def reachable(self, a, b):
        pair = (min(a, b), max(a, b))
        return pair not in self._unreachable_pairs

    def send(self, src, dst, kind, payload, extra_delay=0.0):
        self._check_node(src)
        self._check_node(dst)
        msg = Message(
            src=src, dst=dst, kind=kind, payload=payload,
            send_time=self.engine.now,
        )
        msg.deliver_time = self.engine.now + self.message_delay + extra_delay
        self.messages_sent += 1
        if src not in self._connected:
            self._outbound.setdefault(src, deque()).append(msg)
            self.messages_parked += 1
            return msg
        self._route(msg)
        return msg

    def _route(self, msg):
        if msg.dst not in self._connected or not self.reachable(msg.src, msg.dst):
            self._inbound.setdefault(msg.dst, deque()).append(msg)
            self.messages_parked += 1
            return
        if self.fault_injector is not None and msg.src != msg.dst:
            for fault_msg, extra in self.fault_injector.route(msg):
                if extra > 0.0:
                    if fault_msg.deliver_time < self.engine.now:
                        fault_msg.deliver_time = self.engine.now
                    fault_msg.deliver_time += extra
                self._deliver_after_delay(fault_msg)
            return
        self._deliver_after_delay(msg)

    def park_inbound(self, msg):
        self._inbound.setdefault(msg.dst, deque()).append(msg)
        self.messages_parked += 1
        return _REF_PARKED

    def _deliver_after_delay(self, msg):
        delay = max(0.0, msg.deliver_time - self.engine.now)
        if msg.deliver_time < self.engine.now:
            msg.deliver_time = self.engine.now
        self.in_flight += 1
        self.engine.schedule(delay, self._deliver, msg)

    def _deliver(self, msg):
        self.in_flight -= 1
        if msg.dst not in self._connected or not self.reachable(msg.src, msg.dst):
            self._inbound.setdefault(msg.dst, deque()).append(msg)
            self.messages_parked += 1
            return
        handler = self._handlers.get(msg.dst)
        if handler is None:
            raise SimulationError(f"no handler registered for node {msg.dst}")
        msg.deliver_time = self.engine.now
        result = handler(msg)
        if result is _REF_PARKED:
            return
        self.messages_delivered += 1
        self._latency_total += msg.latency
        if msg.latency > self._latency_max:
            self._latency_max = msg.latency

    def mean_latency(self):
        if self.messages_delivered == 0:
            return 0.0
        return self._latency_total / self.messages_delivered

    @property
    def max_latency(self):
        return self._latency_max

    def parked_inbound(self, node_id):
        return len(self._inbound.get(node_id, ()))

    def parked_outbound(self, node_id):
        return len(self._outbound.get(node_id, ()))

    def _check_node(self, node_id):
        if not 0 <= node_id < self.num_nodes:
            raise ConfigurationError(f"node id {node_id} out of range")


class PayloadTap:
    """A deterministic wire tap keyed on the payload (a step number): drops
    every fifth, duplicates every third (the copy 0.75 late), delays every
    second by 0.25."""

    def route(self, msg: Message) -> List[Tuple[Message, float]]:
        n = msg.payload
        if n % 5 == 0:
            return []
        deliveries = [(msg, 0.25 if n % 2 == 0 else 0.0)]
        if n % 3 == 0:
            clone = Message(msg.src, msg.dst, msg.kind, n, msg.send_time,
                            msg.deliver_time)
            deliveries.append((clone, 0.75))
        return deliveries


NODES = 4
_NODE = st.integers(0, NODES - 1)
_PAIR = st.tuples(_NODE, _NODE).filter(lambda pair: pair[0] != pair[1])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), _NODE, _NODE,
                  st.sampled_from([0.0, 0.0, 0.5, 3.0])),
        st.tuples(st.just("bad-send"), st.sampled_from([(-1, 0), (0, NODES),
                                                        (NODES, -1)])),
        st.tuples(st.just("disconnect"), _NODE),
        st.tuples(st.just("reconnect"), _NODE),
        st.tuples(st.just("partition"), _PAIR),
        st.tuples(st.just("heal"), _PAIR),
        st.tuples(st.just("crash"), _NODE),
        st.tuples(st.just("recover"), _NODE),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.4, 1.0, 5.0])),
    ),
    max_size=50,
)


def _snapshot(net, log) -> Tuple[Any, ...]:
    return (
        list(log),
        [[m.payload for m in net._inbound.get(n, ())] for n in range(NODES)],
        [[m.payload for m in net._outbound.get(n, ())] for n in range(NODES)],
        [(net.parked_inbound(n), net.parked_outbound(n)) for n in range(NODES)],
        net.messages_sent, net.messages_parked, net.messages_delivered,
        net.in_flight, net.mean_latency(), net.max_latency,
    )


def _play(network_class, steps, message_delay: float,
          tap: bool) -> List[Any]:
    """Run ``steps`` on a fresh fabric; return one snapshot per step."""
    engine = Engine()
    net = network_class(engine, NODES, message_delay=message_delay)
    if tap:
        net.install_fault_injector(PayloadTap())
    log: List[Any] = []
    crashed: Set[int] = set()

    def handler(node_id: int):
        def take(msg: Message) -> Optional[object]:
            if node_id in crashed:  # a crashed node refuses, as a system's does
                return net.park_inbound(msg)
            log.append((engine.now, node_id, msg.src, msg.payload,
                        msg.deliver_time - msg.send_time))
            return None
        return take

    for node_id in range(NODES):
        net.register(node_id, handler(node_id))
    snapshots = []
    for number, step in enumerate(steps, start=1):
        kind = step[0]
        if kind == "send":
            _, src, dst, extra = step
            net.send(src, dst, "m", number, extra_delay=extra)
        elif kind == "bad-send":
            src, dst = step[1]
            with pytest.raises(ConfigurationError):
                net.send(src, dst, "m", number)
        elif kind == "disconnect":
            net.disconnect(step[1])
        elif kind == "reconnect":
            net.reconnect(step[1])
        elif kind == "partition":
            net.set_reachable(*step[1], False)
        elif kind == "heal":
            net.set_reachable(*step[1], True)
        elif kind == "crash":
            crashed.add(step[1])
        elif kind == "recover":
            # ReplicatedSystem.recover_node: replay what parked meanwhile
            crashed.discard(step[1])
            if net.is_connected(step[1]):
                net.flush_parked(step[1])
            else:
                net.reconnect(step[1])
        else:
            engine.run(until=engine.now + step[1])
        snapshots.append(_snapshot(net, log))
    engine.run()
    snapshots.append(_snapshot(net, log))
    return snapshots


@settings(max_examples=400, deadline=None)
@given(_STEPS, st.sampled_from([0.0, 1.0]), st.booleans())
def test_network_matches_the_reference_routing(steps, message_delay, tap):
    assert _play(Network, steps, message_delay, tap) == _play(
        ReferenceNetwork, steps, message_delay, tap
    )


@pytest.mark.parametrize("steps", [
    # a cut pair parks both ways while a third node still talks, and the
    # heal flushes only the pair that healed
    [
        ("partition", (0, 1)), ("send", 0, 1, 0.0), ("send", 1, 0, 0.5),
        ("send", 0, 2, 0.0), ("advance", 1.0), ("partition", (2, 1)),
        ("send", 2, 1, 0.0), ("heal", (1, 0)), ("advance", 1.0),
    ],
    # a message in flight when its pair is cut parks at delivery time
    [
        ("send", 0, 3, 3.0), ("advance", 0.4), ("partition", (3, 0)),
        ("advance", 5.0), ("heal", (0, 3)),
    ],
    # a dark sender parks outbound, a crashed receiver refuses until it
    # recovers, and neither refusal counts as a delivery
    [
        ("disconnect", 2), ("send", 2, 0, 0.0), ("crash", 0),
        ("reconnect", 2), ("advance", 1.0), ("send", 1, 0, 0.0),
        ("advance", 1.0), ("recover", 0), ("send", 0, 0, 0.0),
    ],
], ids=["partition-parks", "cut-in-flight", "dark-and-crashed"])
def test_literal_scripts(steps):
    for message_delay in (0.0, 1.0):
        snapshots = _play(Network, steps, message_delay, tap=False)
        assert snapshots == _play(ReferenceNetwork, steps, message_delay,
                                  tap=False)
        final_log = snapshots[-1][0]
        assert final_log, "the script delivered nothing"
