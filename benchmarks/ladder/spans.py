"""In-memory spans around the calls into each layer.

A :class:`SpanRecorder` keeps one stack of open spans.  A span's *self
time* is its duration minus the part its child spans cover, so the self
times of all spans under one root add up to the root's duration and a
layer's cost is the sum of its spans' self times.  Aggregates (calls, self
time) are kept for every span; the spans themselves are kept only up to
:data:`KEEP_SPANS` — enough to read a timeline, bounded in memory — and
written as Chrome trace JSON when the benchmark ends.

Generator functions (``TransactionManager.execute`` and friends) are
wrapped by a proxy that opens one span per resume: a process that parks on
a lock mid-operation closes its span before control returns to the engine,
so the stack is always properly nested inside one engine dispatch.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Tuple

#: spans kept for the timeline; later ones only feed the aggregates
KEEP_SPANS = 100_000
_clock = time.perf_counter_ns


class SpanRecorder:
    """Span stack plus per-span-name aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self._ids: Dict[Tuple[str, str], int] = {}
        self._stack: List[list] = []  # [span id, start ns, child ns]
        self.spans: List[Tuple[int, int, int]] = []  # (span id, start, dur)
        self.dropped = 0

    def span_id(self, layer: str, name: str) -> int:
        """The id of span ``name`` in ``layer`` (registered on first use)."""
        key = (layer, name)
        idx = self._ids.get(key)
        if idx is None:
            idx = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
            self.self_ns.append(0)
        return idx

    def reset(self) -> None:
        """Forget everything recorded so far (between warm-up and the
        measured phase); only valid while no span is open."""
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        self.calls = [0] * len(self.calls)
        self.self_ns = [0] * len(self.self_ns)
        self.spans.clear()
        self.dropped = 0

    def enter(self, idx: int) -> None:
        self._stack.append([idx, _clock(), 0])

    def exit(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        idx, start, child_ns = self._stack.pop()
        duration = _clock() - start
        self.calls[idx] += 1
        self.self_ns[idx] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((idx, start, duration))
        else:
            self.dropped += 1
        return duration

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around each call."""
        idx = self.span_id(layer, name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def wrap_generator(self, layer: str, name: str, fn: Callable) -> Callable:
        """Generator function ``fn`` with a span around each resume."""
        idx = self.span_id(layer, name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            value: Any = None
            thrown = None
            try:
                while True:
                    enter(idx)
                    try:
                        if thrown is None:
                            target = inner.send(value)
                        else:
                            exc, thrown = thrown, None
                            target = inner.throw(exc)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        exit_()
                    try:
                        value = yield target
                    except GeneratorExit:
                        raise
                    except BaseException as exc:  # forwarded into ``inner``
                        thrown = exc
            finally:
                inner.close()

        return traced

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def layer_calls(self, layer: str) -> int:
        return sum(c for c, l in zip(self.calls, self.layers) if l == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(
            ns for ns, l in zip(self.self_ns, self.layers) if l == layer
        ) / 1e9

    def span_calls(self, layer: str, name: str) -> int:
        idx = self._ids.get((layer, name))
        return self.calls[idx] if idx is not None else 0

    def write_chrome_trace(self, path: str, metadata: Dict[str, Any]) -> None:
        """Write the kept spans in Chrome's Trace Event Format.

        Complete (``ph: "X"``) events on one track; a span's parent is the
        event that contains it in time.  ``ts``/``dur`` are microseconds
        from the first kept span.
        """
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": self.names[idx],
                "cat": self.layers[idx],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": duration / 1e3,
                "pid": 1,
                "tid": 1,
            }
            for idx, start, duration in sorted(
                self.spans, key=lambda span: (span[1], -span[2])
            )
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "metadata": dict(metadata, dropped_spans=self.dropped),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
