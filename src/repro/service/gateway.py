"""The asyncio gateway: the two-tier core served over live sockets.

:class:`ServiceGateway` owns a :class:`~repro.core.protocol.TwoTierSystem`
built on a :class:`~repro.service.wallclock.WallClockEngine` and exposes it
over the NDJSON protocol (:mod:`repro.service.protocol`).  Each connection
is bound to a mobile node (round-robin over a small pool, so base-tier
fan-out stays constant as connections grow); each ``txn`` frame runs the
paper's full two-tier cycle as one engine process:

1. tentative execution at the mobile, against a **per-request** overlay so
   concurrent transactions on one mobile never see each other's tentative
   values (``mobile.run_tentative(..., overlay=..., log=False)``),
2. base re-execution at the host base via ``TwoTierSystem.reexecute`` —
   the phase pipeline every transaction of the system runs: locks,
   deadlock retries, the acceptance criterion as its ``certify`` phase,
3. the tentative-notice message delivered back to the mobile, which
   resolves the event the process is waiting on
   (``MobileNode.notice_event``) — the reply's diagnostic comes from the
   same notice path the simulator's reconnect exchange uses, not from a
   shortcut, and no timer runs on the served path.

The transport is one :class:`asyncio.BufferedProtocol` per connection.  A
read lands in the connection's one reused buffer; every complete frame in
it is handled in place, the engine is pumped in the reader's own frame
(:meth:`WallClockEngine.pump` — no task switch before anything runs), and
the replies that produced, each its process's completion callback, leave
in one ``write``: a batch in, a batch out, as the paper's reconnect
exchange has it.  Backpressure is ``pause_reading``: while every in-flight
slot is taken (a counter; the frame that found none stays in the buffer,
and the dispatch that frees a slot parses it), and while a connection's
own peer is not reading its replies — the kernel's window then pushes back
on the client.  Drain: stop admitting, wait for in-flight work, stop the
telemetry ticker, spin the engine dry, then report the drained state
(store checksum, base divergence, WAL quiescence, latency summary) — the
oracle input for the service smoke test.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.protocol import TwoTierSystem
from repro.core.tentative import TentativeStatus, TentativeStore
from repro.obs.samplers import Telemetry
from repro.replication.base import SystemSpec
from repro.service.histogram import LatencyHistogram
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_acceptance,
    decode_line,
    decode_ops,
    encode_line,
    error_reply,
)
from repro.service.wallclock import WallClockEngine


@dataclass(frozen=True)
class GatewayConfig:
    """Shape of the served system (transport endpoints live on ``serve``).

    Service defaults differ from the simulator's: ``action_time`` and
    ``message_delay`` are 0 because real work already costs real time here —
    nonzero values add *artificial* latency, useful only for experiments.
    """

    num_base: int = 1
    mobiles: int = 4
    db_size: int = 1000
    action_time: float = 0.0
    message_delay: float = 0.0
    seed: int = 0
    initial_value: Any = 0
    max_inflight: int = 256
    sample_interval: float = 0.0  # 0 disables the telemetry ticker


#: a connection's read buffer: every read lands in it; it grows (to at most
#: one maximal frame and its newline) only while a single frame is longer
_READ_BUFFER_BYTES = 1 << 16


class _Connection(asyncio.BufferedProtocol):
    """One client: frames in through one reused buffer, replies out per
    batch — one read, its frames, the pump they feed, one write."""

    def __init__(self, gateway: "ServiceGateway"):
        self.gateway = gateway
        self.mobile_id = next(gateway._next_mobile)
        self.buffer = bytearray(_READ_BUFFER_BYTES)
        self.start = self.end = 0  # buffer[start:end]: read, not yet handled
        self.scanned = 0  # buffer[start:scanned] is known to hold no newline
        self.batch: Optional[list] = None  # the running batch's replies
        self.unanswered = 0  # transactions spawned here, reply not yet out
        self.held = False  # a frame waits for a slot, or a drain runs
        self.eof = False  # input is over: close when everything is answered
        self.pauses = 0  # reasons not to read: held, eof, a peer not reading

    def connection_made(self, transport) -> None:
        gateway = self.gateway
        self.transport = transport
        gateway.connections_total += 1
        gateway._connections.add(self)
        self.send(
            {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "conn": next(gateway._conn_seq),
                "mobile": self.mobile_id,
                "num_base": gateway.config.num_base,
                "db_size": gateway.config.db_size,
                "initial_value": gateway.config.initial_value,
            }
        )

    def connection_lost(self, exc) -> None:
        self.gateway._connections.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        buffer = self.buffer
        if self.start:  # slide the partial frame at the tail to the front
            tail = self.end - self.start
            buffer[:tail] = buffer[self.start:self.end]
            self.scanned -= self.start
            self.start, self.end = 0, tail
        if self.end == len(buffer):  # one frame longer than the buffer
            buffer.extend(
                bytes(min(len(buffer), MAX_LINE_BYTES + 1 - len(buffer)))
            )
        elif self.end < _READ_BUFFER_BYTES < len(buffer):
            del buffer[_READ_BUFFER_BYTES:]  # that frame has been handled
        return memoryview(buffer)[self.end:]

    def buffer_updated(self, nbytes: int) -> None:
        """One read, one batch: parse, pump, write the replies at once."""
        self.gateway.reads += 1
        self.end += nbytes
        self.batch = []
        try:
            self.gateway.engine.pump(self._parse)
        finally:
            batch, self.batch = self.batch, None
            if batch:
                self._write(b"".join(batch))
            self._close_if_done()

    def eof_received(self) -> bool:
        self.eof = True  # _parse now takes a half-written frame as the last
        self._stop_reading()
        self.buffer_updated(0)
        return True  # a half-closed client still gets every reply

    def _parse(self) -> None:
        """Handle, in place and in order, every complete frame buffered."""
        buffer, end = self.buffer, self.end
        while not self.held:
            newline = buffer.find(b"\n", self.scanned, end)
            if newline < 0:
                self.scanned = end
                if not (self.eof and self.start < end):
                    if end - self.start > MAX_LINE_BYTES:
                        # what follows is the middle of it: say why and leave
                        # (transactions in flight here are answered first)
                        self._refuse(f"frame exceeds {MAX_LINE_BYTES} bytes")
                        self.eof = True
                        self._stop_reading()
                        self.start = end
                    break
                newline = end  # EOF ends a half-written frame: answer it
            if not self._frame(buffer[self.start:newline]):
                break  # held back: the frame stays in the buffer
            self.start = self.scanned = min(newline + 1, end)
        if self.start == end:
            self.start = self.end = self.scanned = 0

    def _frame(self, line: bytearray) -> bool:
        """Handle one frame; False when it must wait for an in-flight slot."""
        gateway = self.gateway
        request_id = None
        try:
            message = decode_line(line)
            request_id = message.get("id")
            kind = message["type"]
            if kind == "txn":
                if gateway._draining:
                    raise ProtocolError("draining")
                ops = decode_ops(message.get("ops"))
                acceptance = decode_acceptance(message.get("acceptance"))
                if gateway._inflight >= gateway.config.max_inflight:
                    # backpressure: stop reading until a slot frees
                    gateway._stalled.append(self)
                    self.held = True
                    self._stop_reading()
                    return False
                gateway._inflight += 1
                self.unanswered += 1
                gateway.engine.process(
                    gateway._serve_txn(self.mobile_id, ops, acceptance,
                                       str(message.get("label", ""))),
                    name="serve-txn",
                ).add_callback(functools.partial(
                    self._answer, request_id, time.monotonic()
                ))
            elif kind == "ping":
                self.send({"type": "pong", "id": request_id})
            elif kind == "stats":
                self.send(gateway._stats_reply())
            elif kind == "drain":
                self.held = True  # later frames wait for the drained report
                self._stop_reading()
                self.drain_task = asyncio.ensure_future(
                    self._drain(message.get("stop"))
                )
            else:
                raise ProtocolError(f"unknown frame type {kind!r}")
        except ProtocolError as exc:
            self._refuse(str(exc), request_id)
        return True

    async def _drain(self, stop: Any) -> None:
        self.send(await self.gateway.drain())
        if stop:
            self.gateway.request_stop()
        self._resume()

    def _resume(self) -> None:
        """A slot freed, or the drain ended: take up the held-back frames.
        Inside a dispatch this parses into it — never a nested pump."""
        self.held = False
        self._read_on()
        self._parse()
        self._close_if_done()

    def _stop_reading(self) -> None:
        """One more reason not to read this peer's frames."""
        self.pauses += 1
        self.transport.pause_reading()

    def _read_on(self) -> None:
        self.pauses -= 1
        if not self.pauses:
            self.transport.resume_reading()

    # the transport's own flow control: a peer that is not reading its
    # replies is one such reason
    pause_writing, resume_writing = _stop_reading, _read_on

    def send(self, message: Dict[str, Any]) -> None:
        """Queue ``message`` on the running batch, or write it now."""
        frame = encode_line(message)
        if self.batch is not None:
            self.batch.append(frame)
        else:
            self._write(frame)

    def _refuse(self, why: str, request_id: Any = None) -> None:
        self.gateway.errors += 1
        self.send(error_reply(why, request_id))

    def _write(self, data: bytes) -> None:
        if self.transport.is_closing():
            return  # a peer that left: its transactions still counted
        self.gateway.writes += 1
        try:
            self.transport.write(data)
        except Exception:  # noqa: BLE001 - contain, count, keep serving
            self.gateway.errors += 1

    def _answer(self, request_id: Any, start: float, proc) -> None:
        """``proc``'s completion callback: queue or write its reply, free
        its slot.  Runs in the engine's dispatch, so nothing may escape."""
        gateway = self.gateway
        try:
            self.send(gateway._result_frame(request_id, start, proc))
        except Exception:  # noqa: BLE001 - contain, count, keep serving
            gateway.errors += 1
        self.unanswered -= 1
        gateway._inflight -= 1
        while (gateway._stalled
               and gateway._inflight < gateway.config.max_inflight):
            gateway._stalled.pop(0)._resume()
        self._close_if_done()

    def _close_if_done(self) -> None:
        if (self.eof and self.batch is None
                and not (self.unanswered or self.held)):
            self.transport.close()


class ServiceGateway:
    """One live two-tier service instance."""

    def __init__(self, config: Optional[GatewayConfig] = None):
        self.config = config or GatewayConfig()
        cfg = self.config
        if cfg.mobiles <= 0:
            raise ValueError("need at least one mobile node")
        if cfg.max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.engine = WallClockEngine()
        self.telemetry = (
            Telemetry(interval=cfg.sample_interval)
            if cfg.sample_interval > 0
            else None
        )
        spec = SystemSpec(
            num_nodes=cfg.num_base + cfg.mobiles,
            db_size=cfg.db_size,
            action_time=cfg.action_time,
            message_delay=cfg.message_delay,
            seed=cfg.seed,
            initial_value=cfg.initial_value,
            engine=self.engine,
            telemetry=self.telemetry,
        )
        self.system = TwoTierSystem(spec, num_base=cfg.num_base)
        self._mobile_ids = sorted(self.system.mobiles)
        self._next_mobile = itertools.cycle(self._mobile_ids)
        self._conn_seq = itertools.count(1)
        self._inflight = 0
        self._stalled: list = []  # connections with a frame held for a slot
        self._connections: set = set()
        self._draining = False
        self._stop = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._ticker_proc = None
        self._started_at: Optional[float] = None
        self.histogram = LatencyHistogram()
        # service counters (engine/system metrics ride along separately)
        self.connections_total = 0
        self.served = 0
        self.accepted = 0
        self.rejected = 0
        self.errors = 0
        self.reads = 0  # buffer_updated calls
        self.writes = 0  # transport.write calls

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
    ) -> None:
        """Bind the listening socket (TCP host/port or unix ``unix_path``)."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        loop = asyncio.get_running_loop()
        connection = functools.partial(_Connection, self)
        if unix_path is not None:
            self._server = await loop.create_unix_server(
                connection, path=unix_path
            )
        else:
            self._server = await loop.create_server(
                connection, host=host or "127.0.0.1", port=port or 0
            )
        self._started_at = time.monotonic()
        if self.telemetry is not None:
            self._ticker_proc = self.engine.process(
                self._telemetry_ticker(), name="telemetry-ticker"
            )

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (None for unix sockets) — for port-0 tests."""
        if self._server is None:
            return None
        for sock in self._server.sockets:
            name = sock.getsockname()
            if isinstance(name, tuple):
                return name[1]
        return None

    async def run(self) -> None:
        """Serve until :meth:`request_stop` — the ``repro serve`` main."""
        if self._server is None:
            raise RuntimeError("call start() before run()")
        engine_task = asyncio.create_task(
            self.engine.run_async(stop=self._stop), name="wallclock-engine"
        )
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            for connection in list(self._connections):  # idle ones linger
                connection.transport.close()
            await self._server.wait_closed()
            self.engine.kick()
            await engine_task

    def request_stop(self) -> None:
        """Stop serving (signal handlers and the drain/stop frame)."""
        self._stop.set()
        self.engine.kick()

    def _telemetry_ticker(self):
        # self-rescheduling, unlike Telemetry.schedule()'s pre-computed
        # horizon ticks: a service has no horizon.  Killed at drain/stop.
        interval = self.config.sample_interval
        while True:
            yield self.engine.timeout(interval)
            self.telemetry.sample(self.engine.now)

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    def _result_frame(
        self, request_id: Any, start: float, proc
    ) -> Dict[str, Any]:
        """Account one finished ``serve-txn`` process and build its reply."""
        if proc.exception is not None:  # report, don't die
            self.errors += 1
            exc = proc.exception
            return error_reply(f"{type(exc).__name__}: {exc}", request_id)
        record, notice = proc.value
        latency = time.monotonic() - start
        self.histogram.record(latency)
        self.served += 1
        if record.status is TentativeStatus.ACCEPTED:
            self.accepted += 1
            status = "accepted"
        else:
            self.rejected += 1
            status = "rejected"
        result = {
            "type": "result",
            "id": request_id,
            "status": status,
            "seq": record.seq,
            "mobile": record.mobile_id,
            "latency_ms": round(latency * 1000.0, 4),
            # the acknowledgement really did travel base -> mobile as a
            # tentative-notice message (satellite: diagnostics round-trip)
            "noticed": notice is not None,
        }
        if record.diagnostic:
            result["diagnostic"] = record.diagnostic
        return result

    def _serve_txn(self, mobile_id: int, ops, acceptance, label: str):
        """Engine process: one transaction through the full two-tier cycle."""
        mobile = self.system.mobiles[mobile_id]
        overlay = TentativeStore(mobile.context.store)
        record = yield from mobile.run_tentative(
            ops, acceptance, label, overlay=overlay, log=False
        )
        noticed = mobile.notice_event(record.seq)
        yield from self.system.reexecute(record)
        return record, (yield noticed)

    # ------------------------------------------------------------------ #
    # stats & drain
    # ------------------------------------------------------------------ #

    def _stats_reply(self) -> Dict[str, Any]:
        uptime = (
            time.monotonic() - self._started_at if self._started_at else 0.0
        )
        return {
            "type": "stats",
            "uptime_seconds": round(uptime, 3),
            "connections_total": self.connections_total,
            "inflight": self._inflight,
            "served": self.served,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errors": self.errors,
            "draining": self._draining,
            "io": {"reads": self.reads, "writes": self.writes},
            "engine": {
                "now": self.engine.now,
                "queued_events": self.engine.queued_events,
                "events_scheduled": self.engine.events_scheduled,
            },
            "latency_ms": self.histogram.summary_ms(),
        }

    async def drain(self) -> Dict[str, Any]:
        """Stop admitting, finish in-flight work, spin the engine dry."""
        self._draining = True
        while self._inflight > 0:
            await asyncio.sleep(0.005)
        if self._ticker_proc is not None:
            self._ticker_proc.kill()
            self._ticker_proc = None
        while self.engine.queued_events > 0:
            self.engine.kick()
            await asyncio.sleep(0.005)
        return self.drained_report()

    def drained_report(self) -> Dict[str, Any]:
        """Oracle input: checkable invariants over the quiesced system."""
        system = self.system
        store_sum = 0
        non_numeric = 0
        for value in system.nodes[0].store.snapshot().values():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                store_sum += value
            else:
                non_numeric += 1
        wal_quiescent = True
        for node_id in system.base_ids:
            try:
                system.nodes[node_id].wal.assert_quiescent()
            except Exception:  # noqa: BLE001 - the verdict is the point
                wal_quiescent = False
                break
        report = self._stats_reply()
        report["type"] = "drained"
        metrics = {
            key: value
            for key, value in system.metrics.as_dict().items()
            if value
        }
        report.update(
            {
                "store_sum": store_sum,
                "store_non_numeric": non_numeric,
                "base_divergence": system.base_divergence(),
                "wal_quiescent": wal_quiescent,
                "metrics": metrics,
                "histogram": self.histogram.to_dict(),
            }
        )
        if self.telemetry is not None:
            report["telemetry"] = self.telemetry.to_dict()
        return report
