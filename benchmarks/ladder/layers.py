"""Which public callables stand for which layer, and how they get wrapped.

Layer names are the repo's module names.  Wrapping happens at class level
(and, for the codec functions the gateway imported by name, on the gateway
module's globals) *before* a system is built, because hot paths pin bound
methods at construction; :func:`traced` restores every original on exit.
Engine dispatches become root spans through :class:`SpanProfiler`.
"""

from __future__ import annotations

import contextlib
import inspect
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.core.tentative import TentativeStore
from repro.network.network import Network
from repro.obs.profiler import Bucket, Profiler, bucket_name
from repro.placement.directory import BoundDirectory
from repro.placement.full import BoundFullReplication
from repro.placement.hash_shard import BoundHashShard
from repro.replication.base import ReplicatedSystem
from repro.service import gateway as gateway_module
from repro.service.histogram import LatencyHistogram
from repro.storage.deadlock import DeadlockDetector
from repro.storage.lock_manager import LockManager
from repro.storage.store import ObjectStore
from repro.storage.wal import WriteAheadLog
from repro.txn.manager import TransactionManager

from benchmarks.ladder.spans import SpanRecorder

_PLACEMENT_QUERIES = ("replicas", "master", "is_replica", "objects_at")

#: (layer, owner, attribute names) — owners are classes or modules
WRAPPED: List[Tuple[str, object, Tuple[str, ...]]] = [
    ("txn.manager", TransactionManager, (
        "begin", "commit", "abort", "finish_commit_local",
        "finish_abort_local", "execute", "execute_install",
        "execute_transform",
    )),
    ("storage.lock_manager", LockManager, (
        "acquire", "release_all", "cancel_request",
    )),
    ("storage.deadlock", DeadlockDetector, (
        "set_waits", "clear_wait", "clear_waits", "find_victim",
        "abort_waiting_txn",
    )),
    ("storage.wal", WriteAheadLog, ("record", "undo", "forget")),
    ("storage.store", ObjectStore, (
        "read", "value", "timestamp", "peek", "write", "apply", "restore",
        "adopt",
    )),
    ("network", Network, ("send",)),
    ("placement", BoundHashShard, _PLACEMENT_QUERIES),
    ("placement", BoundFullReplication, _PLACEMENT_QUERIES),
    ("placement", BoundDirectory, _PLACEMENT_QUERIES),
    ("replication", ReplicatedSystem, ("submit",)),
    ("core.tentative", TentativeStore, (
        "__init__", "value", "write", "apply", "discard",
    )),
    ("service.histogram", LatencyHistogram, ("record",)),
    ("service.protocol.decode", gateway_module, (
        "decode_line", "decode_ops", "decode_acceptance",
    )),
    ("service.protocol.encode", gateway_module, ("encode_line",)),
]

#: span layer of a Profiler bucket (see :class:`SpanProfiler`)
_BUCKET_LAYERS = {
    "workload": "workload",
    "Network._deliver": "network",
    # the gateway's per-request process runs two-tier's tentative
    # execution and base replay: the service's "user transaction"
    "serve-txn": "replication.user_txn",
}


def bucket_layer(bucket: str) -> str:
    """The layer an engine-dispatch bucket's self time belongs to."""
    layer = _BUCKET_LAYERS.get(bucket)
    if layer is not None:
        return layer
    if bucket.startswith("handler-"):
        return "replication.handler"
    if bucket.endswith("-txn"):  # ``<strategy name>-txn`` user transactions
        return "replication.user_txn"
    return "sim.other"


class SpanProfiler(Profiler):
    """An :class:`~repro.obs.profiler.Profiler` whose buckets are spans.

    Installed on the engine like the stock profiler, with the same bucket
    names and totals, but each dispatch is also a root span — so a bucket's
    *self* time (the strategy's own code, minus the wrapped layer calls it
    made) falls out of the recorder's stack like any other span's.
    """

    def __init__(self, recorder: SpanRecorder):
        super().__init__()
        self._recorder = recorder

    def dispatch(self, callback: Callable, args: Tuple[Any, ...]) -> None:
        name = bucket_name(callback, args)
        bucket = self.buckets.get(name)
        if bucket is None:
            bucket = self.buckets[name] = Bucket(name)
        recorder = self._recorder
        recorder.enter(recorder.span_id(bucket_layer(name), name))
        try:
            callback(*args)
        finally:
            seconds = recorder.exit() / 1e9
            bucket.calls += 1
            bucket.seconds += seconds
            self.total_dispatches += 1
            self.total_seconds += seconds


def _strategy_classes() -> List[type]:
    """ReplicatedSystem subclasses that define their own handle_message."""
    from repro.harness.experiment import STRATEGY_CLASSES

    return [
        cls for cls in STRATEGY_CLASSES.values()
        if "handle_message" in cls.__dict__
    ]


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer callable for the duration of the block."""
    targets = list(WRAPPED) + [
        ("replication.handler", cls, ("handle_message",))
        for cls in _strategy_classes()
    ]
    undo = []
    try:
        for layer, owner, names in targets:
            owned = vars(owner)
            for name in names:
                original = owned.get(name)
                if original is None:
                    continue  # inherited: the defining class is wrapped
                label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
                wrapper = (
                    recorder.wrap_generator
                    if inspect.isgeneratorfunction(original)
                    else recorder.wrap
                )
                setattr(owner, name, wrapper(layer, label, original))
                undo.append((owner, name, original))
        yield recorder
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def layer_values(
    recorder: SpanRecorder, txns: int, counters: Dict[str, int]
) -> Dict[str, float]:
    """The per-transaction rows every traced run shares, simulated or served.

    ``counters`` are the system's own (waits, deadlocks, commits, aborts,
    cert_aborts): ratios are taken where the work happens.
    """

    def us_per_txn(*layer_names: str) -> float:
        return sum(recorder.layer_self_s(l) for l in layer_names) / txns * 1e6

    def per_txn(layer: str, span: str) -> float:
        return recorder.span_calls(layer, span) / txns

    acquires = recorder.span_calls("storage.lock_manager", "LockManager.acquire")
    finished = counters["commits"] + counters["aborts"]
    return {
        "txn.manager.self_us_per_txn": us_per_txn("txn.manager"),
        "storage.lock_manager.acquires_per_txn": acquires / txns,
        "storage.lock_manager.self_us_per_txn": us_per_txn(
            "storage.lock_manager"
        ),
        "storage.lock_manager.block_share": (
            counters["waits"] / acquires if acquires else 0.0
        ),
        "storage.deadlock.self_us_per_txn": us_per_txn("storage.deadlock"),
        "storage.deadlock.victims_per_ktxn": counters["deadlocks"] / txns * 1e3,
        "storage.wal.records_per_txn": per_txn(
            "storage.wal", "WriteAheadLog.record"
        ),
        "storage.wal.self_us_per_txn": us_per_txn("storage.wal"),
        "storage.store.ops_per_txn": recorder.layer_calls("storage.store") / txns,
        "storage.store.self_us_per_txn": us_per_txn("storage.store"),
        "network.sends_per_txn": per_txn("network", "Network.send"),
        "network.self_us_per_txn": us_per_txn("network"),
        "placement.lookups_per_txn": recorder.layer_calls("placement") / txns,
        "placement.self_us_per_txn": us_per_txn("placement"),
        "replication.user_txn_us_per_txn": us_per_txn(
            "replication.user_txn", "replication"
        ),
        # buckets that are neither a user transaction nor a message
        # handler (bare engine callbacks) are counted with the handlers
        "replication.handler_us_per_txn": us_per_txn(
            "replication.handler", "sim.other"
        ),
        "replication.commit_share": (
            counters["commits"] / finished if finished else 0.0
        ),
        "replication.cert_aborts_per_ktxn": counters["cert_aborts"] / txns * 1e3,
        "workload.us_per_txn": us_per_txn("workload"),
        "service.protocol.decode_us_per_txn": us_per_txn(
            "service.protocol.decode"
        ),
        "service.protocol.encode_us_per_txn": us_per_txn(
            "service.protocol.encode"
        ),
        "core.tentative.overlays_per_txn": per_txn(
            "core.tentative", "TentativeStore.__init__"
        ),
        "core.tentative.self_us_per_txn": us_per_txn("core.tentative"),
        "service.histogram.record_us_per_txn": us_per_txn("service.histogram"),
    }
