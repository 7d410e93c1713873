"""The load generator: seeded transactions over two pipelined connections.

Everything the server sees is generated here from ``--seed``: keys, amounts
and arrival times.  Frames are encoded before their phase starts, so the
send path is one ``write`` per transaction.

Two loop shapes, stated per phase:

* **open loop** — Poisson arrivals at a fixed rate, sent on schedule whether
  or not earlier replies came back.  Latency is taken from the time a
  transaction was *due*, so a stall is charged to every transaction it
  delayed; how late the generator itself ran is reported beside it.
* **closed loop** — each connection keeps a fixed number of transactions
  outstanding and sends the next on each reply; replies per second is the
  service's capacity.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: pipelined unix-socket connections (this box has two cores: one server
#: process, one generator process)
CONNECTIONS = 2
#: wait at most this long after a phase's last send for its replies
_GRACE_SECONDS = 20.0

_INCREMENTS = (1, 2, 5, -1, -2)
_CHECK_AMOUNTS = (-50, -20, -10, 10, 20)


@dataclass(frozen=True)
class SvcWorkload:
    """Server shape plus the transaction recipe."""

    db_size: int
    initial_value: int
    build: Callable[[random.Random, int, int], Tuple[bytes, int]]


def _uniform_txn(rng: random.Random, txn_id: int, db_size: int):
    """Two commuting increments on distinct uniform keys; never rejected."""
    a, b = rng.sample(range(db_size), 2)
    da, db = rng.choice(_INCREMENTS), rng.choice(_INCREMENTS)
    frame = (
        b'{"type":"txn","id":%d,"ops":[["inc",%d,%d],["inc",%d,%d]],'
        b'"acceptance":"always"}\n' % (txn_id, a, da, b, db)
    )
    return frame, da + db


def _checkbook_txn(rng: random.Random, txn_id: int, db_size: int):
    """One debit-heavy check against a hot account; bounces below zero."""
    account = rng.randrange(db_size)
    amount = rng.choice(_CHECK_AMOUNTS)
    frame = (
        b'{"type":"txn","id":%d,"ops":[["inc",%d,%d]],'
        b'"acceptance":"non-negative"}\n' % (txn_id, account, amount)
    )
    return frame, amount


WORKLOADS: Dict[str, SvcWorkload] = {
    "svc_uniform": SvcWorkload(2000, 0, _uniform_txn),
    "svc_checkbook_hot": SvcWorkload(50, 100, _checkbook_txn),
}


class TxnStream:
    """The run's transactions, in id order, from one seeded stream."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self._rng = random.Random(f"{name}/{seed}/txns")
        self.deltas: List[int] = []  # indexed by transaction id

    def next_frame(self) -> Tuple[int, bytes]:
        """The next transaction: (id, encoded frame)."""
        txn_id = len(self.deltas)
        frame, delta = self.workload.build(
            self._rng, txn_id, self.workload.db_size
        )
        self.deltas.append(delta)
        return txn_id, frame


@dataclass
class Phase:
    """What one phase sent and got back."""

    label: str
    started: float = 0.0
    ended: float = 0.0
    sent: int = 0
    accepted: int = 0
    rejected: int = 0
    errors: int = 0
    noticed: int = 0
    lost: int = 0
    #: per reply: (due time, latency from due in ms, server's own latency_ms)
    replies: List[Tuple[float, float, float]] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    #: (time, answered so far) at each closed-loop segment boundary
    marks: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def answered(self) -> int:
        return self.accepted + self.rejected


class LoadGenerator:
    """Two connections, one transaction stream, one phase at a time."""

    def __init__(self, stream: TxnStream):
        self.stream = stream
        self.accepted_delta = 0
        self.phases: List[Phase] = []
        self.welcome: Dict[str, object] = {}
        self.disconnected = False
        self._writers: List[asyncio.StreamWriter] = []
        self._readers: List[asyncio.Task] = []
        self._pending: Dict[int, float] = {}  # txn id -> due time
        self._phase: Optional[Phase] = None
        self._refill = False  # closed loop: send the next on each reply
        self._idle = asyncio.Event()

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #

    async def connect(self, path: str) -> None:
        for index in range(CONNECTIONS):
            reader, writer = await asyncio.open_unix_connection(path)
            self.welcome = json.loads(await reader.readline())
            self._writers.append(writer)
            self._readers.append(
                asyncio.create_task(self._read(index, reader))
            )

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
        await asyncio.gather(*self._readers, return_exceptions=True)

    async def _read(self, index: int, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                if self._pending:
                    self.disconnected = True
                    self._idle.set()
                return
            self._on_reply(index, line, time.perf_counter())

    def _on_reply(self, index: int, line: bytes, now: float) -> None:
        reply = json.loads(line)
        due = self._pending.pop(reply.get("id"), None)
        phase = self._phase
        if due is None or phase is None:
            return  # not a transaction reply
        if reply["type"] != "result":
            phase.errors += 1
        elif reply["status"] == "accepted":
            phase.accepted += 1
            self.accepted_delta += self.stream.deltas[reply["id"]]
        elif reply["status"] == "rejected":
            phase.rejected += 1
        else:
            phase.errors += 1
        if reply["type"] == "result":
            phase.noticed += bool(reply.get("noticed"))
            phase.replies.append(
                (due, (now - due) * 1e3, reply.get("latency_ms", 0.0))
            )
        if self._refill:
            self._send(index, now, *self.stream.next_frame())
        elif not self._pending:
            self._idle.set()

    def _send(self, index: int, due: float, txn_id: int, frame: bytes) -> None:
        self._pending[txn_id] = due
        self._phase.sent += 1
        self._writers[index].write(frame)

    async def _settle(self, phase: Phase) -> Phase:
        """Wait for the phase's outstanding replies, then close it."""
        if self._pending and not self.disconnected:
            self._idle.clear()
            try:
                await asyncio.wait_for(self._idle.wait(), _GRACE_SECONDS)
            except asyncio.TimeoutError:
                pass
        phase.lost = len(self._pending)
        self._pending.clear()
        phase.ended = time.perf_counter()
        self._phase = None
        self.phases.append(phase)
        return phase

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #

    async def open_loop(
        self,
        label: str,
        rate: float,
        seconds: float,
        rng: random.Random,
        on_window: Optional[Callable[[], None]] = None,
        windows: int = 1,
    ) -> Phase:
        """Poisson arrivals at ``rate``/s for ``seconds``.

        ``on_window`` is called ``windows + 1`` times whatever arrives: at
        the start, at each interior boundary of ``windows`` equal parts of
        the send schedule, and after the last reply (the caller reads the
        server's CPU clock there).
        """
        dues: List[float] = []
        at = rng.expovariate(rate)
        while at < seconds:
            dues.append(at)
            at += rng.expovariate(rate)
        frames = [self.stream.next_frame() for _ in dues]
        phase = self._phase = Phase(label)
        boundary = 1
        start = phase.started = time.perf_counter() + 0.005
        if on_window is not None:
            on_window()
        sent, total = 0, len(dues)
        while sent < total:
            now = time.perf_counter() - start
            wait = dues[sent] - now
            if wait > 0:
                # epoll sleeps round up to a whole millisecond; spinning
                # through the remainder was measured to slow the server
                # (p50 2.0 ms against 1.4 ms) on this two-core box
                await asyncio.sleep(wait)
                continue
            while sent < total and dues[sent] <= now:
                due = dues[sent]
                while due >= boundary * seconds / windows:
                    boundary += 1
                    if on_window is not None:
                        on_window()
                self._send(sent % CONNECTIONS, start + due, *frames[sent])
                phase.late_ms.append((now - due) * 1e3)
                sent += 1
        tail = start + seconds - time.perf_counter()
        if tail > 0:
            await asyncio.sleep(tail)
        await self._settle(phase)
        if on_window is not None:
            # boundaries no arrival crossed, then the end of the phase
            for _ in range(boundary, windows + 1):
                on_window()
        return phase

    async def closed_loop(
        self, label: str, outstanding: int, warm: float, segment: float,
        segments: int,
    ) -> Phase:
        """``outstanding`` transactions in flight per connection.

        Runs ``warm`` seconds unmeasured, then ``segments`` segments of
        ``segment`` seconds; ``phase.marks`` holds (time, answered) at
        every boundary.
        """
        phase = self._phase = Phase(label)
        phase.started = now = time.perf_counter()
        self._refill = True
        for index in range(CONNECTIONS):
            for _ in range(outstanding):
                self._send(index, now, *self.stream.next_frame())
        for pause in [warm] + [segment] * segments:
            await asyncio.sleep(pause)
            if self.disconnected:
                break
            phase.marks.append((time.perf_counter(), phase.answered))
        self._refill = False
        return await self._settle(phase)
