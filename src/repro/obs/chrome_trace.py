"""Export :class:`~repro.sim.tracing.Tracer` events to Chrome trace JSON.

The output is the Trace Event Format that Chrome's ``about:tracing`` and
https://ui.perfetto.dev load directly — each simulated node becomes one
Perfetto *process track*, every user transaction a duration slice on that
track, and deadlocks / faults / partitions instant markers.  Virtual
seconds map to trace microseconds, so the paper's shapes (a wait queue
congesting, a reconciliation storm after a partition) are visible on a
zoomable timeline instead of in end-of-run counters.

Event mapping:

* ``commit`` / ``abort`` events carrying ``start`` + ``node`` details →
  complete slices (``ph: "X"``) with ``pid`` = node, ``tid`` = txn id;
* ``deadlock``, ``crash``, ``recover``, ``reconcile``, ``wait``, ... →
  process-scoped instants on their node's track;
* ``fault`` and ``partition`` → global instants (they concern links, not
  one node).

Events are emitted sorted by timestamp (metadata first), which some
viewers require and the schema tests assert.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.sim.tracing import TraceEvent, Tracer

#: one virtual second is one trace second (Chrome's ts unit is µs)
MICROSECONDS = 1e6

#: categories drawn as global (trace-wide) instant markers
_GLOBAL_CATEGORIES = frozenset({"fault", "partition"})

#: detail keys that locate an event on a node track, in preference order
_NODE_KEYS = ("node", "origin", "mobile")


def _node_of(event: TraceEvent) -> Optional[int]:
    for key in _NODE_KEYS:
        value = event.detail.get(key)
        if isinstance(value, int):
            return value
    return None


def _slice_name(event: TraceEvent) -> str:
    label = event.detail.get("label")
    if label:
        return str(label)
    txn = event.detail.get("txn")
    if event.category == "abort":
        reason = event.detail.get("reason", "abort")
        return f"txn {txn} abort({reason})"
    return f"txn {txn}"


def _args_of(event: TraceEvent) -> Dict[str, Any]:
    """Event details, JSON-safe (stringify anything exotic)."""
    args: Dict[str, Any] = {"category": event.category}
    for key, value in event.detail.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            args[key] = value
        elif isinstance(value, (list, tuple)):
            args[key] = [str(v) if not isinstance(v, (int, float, str, bool))
                         else v for v in value]
        else:
            args[key] = str(value)
    return args


def chrome_trace_events(
    events: Iterable[TraceEvent],
    num_nodes: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Convert trace events into a sorted Trace Event Format list.

    Args:
        events: the tracer's events (any order; output is ts-sorted).
        num_nodes: emit process-name metadata for nodes ``0..num_nodes-1``
            even if some never traced an event (keeps tracks stable across
            runs); ``None`` names only the nodes that appear.
    """
    body: List[Dict[str, Any]] = []
    seen_nodes = set(range(num_nodes)) if num_nodes else set()
    for event in events:
        ts = event.time * MICROSECONDS
        node = _node_of(event)
        if node is not None:
            seen_nodes.add(node)
        if event.category in ("commit", "abort") and "start" in event.detail:
            start = float(event.detail["start"])
            pid = node if node is not None else 0
            seen_nodes.add(pid)
            body.append({
                "name": _slice_name(event),
                "cat": f"txn,{event.category}",
                "ph": "X",
                "ts": start * MICROSECONDS,
                "dur": max(0.0, (event.time - start)) * MICROSECONDS,
                "pid": pid,
                "tid": event.detail.get("txn", 0),
                "args": _args_of(event),
            })
            continue
        scope_global = event.category in _GLOBAL_CATEGORIES or node is None
        instant: Dict[str, Any] = {
            "name": (event.detail.get("kind") and
                     f"{event.category}:{event.detail['kind']}")
            or event.category,
            "cat": event.category,
            "ph": "i",
            "ts": ts,
            "s": "g" if scope_global else "p",
            "pid": 0 if scope_global else node,
            "tid": 0,
            "args": _args_of(event),
        }
        body.append(instant)
    body.sort(key=lambda e: e["ts"])

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "args": {"name": f"node {pid}"},
        }
        for pid in sorted(seen_nodes)
    ]
    # pid-order node tracks regardless of name collation in the viewer
    metadata.extend(
        {
            "name": "process_sort_index",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "args": {"sort_index": pid},
        }
        for pid in sorted(seen_nodes)
    )
    return metadata + body


def to_chrome_trace(
    source: Union[Tracer, Iterable[TraceEvent]],
    num_nodes: Optional[int] = None,
) -> Dict[str, Any]:
    """The complete JSON-object form of a trace (Perfetto-loadable)."""
    events = source.events() if isinstance(source, Tracer) else list(source)
    return {
        "traceEvents": chrome_trace_events(events, num_nodes=num_nodes),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.chrome_trace",
            "events": len(events),
            "dropped": source.dropped if isinstance(source, Tracer) else 0,
        },
    }


def write_chrome_trace(
    source: Union[Tracer, Iterable[TraceEvent]],
    path: Union[str, Path],
    num_nodes: Optional[int] = None,
) -> Path:
    """Serialise a trace to ``path``; returns the written path."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(source, num_nodes=num_nodes), fh)
        fh.write("\n")
    return target
