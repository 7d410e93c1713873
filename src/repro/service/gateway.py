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

The reply is that process's completion callback: one ``write``, no task.
Backpressure: a global in-flight semaphore, its slot freed when the
transaction completes; when it is full, or while a connection's own peer
is not reading its replies, the connection's reader stops reading and the
kernel's TCP window pushes back on the client.  Drain: stop admitting,
wait for in-flight work, stop the telemetry ticker, spin the engine dry,
then report the drained state (store checksum, base divergence, WAL
quiescence, latency summary) — the oracle input for the service smoke
test.
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
        self._inflight_sem = asyncio.Semaphore(cfg.max_inflight)
        self._inflight = 0
        self._draining = False
        self._stop = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set = set()
        self._ticker_proc = None
        self._started_at: Optional[float] = None
        self.histogram = LatencyHistogram()
        # service counters (engine/system metrics ride along separately)
        self.connections_total = 0
        self.served = 0
        self.accepted = 0
        self.rejected = 0
        self.errors = 0

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
        if unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=unix_path, limit=MAX_LINE_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=host or "127.0.0.1",
                port=port or 0,
                limit=MAX_LINE_BYTES,
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
            await self._server.wait_closed()
            # idle handlers sit in readline() forever; close them cleanly
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )
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
    # connections
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_id = next(self._conn_seq)
        self.connections_total += 1
        mobile_id = next(self._next_mobile)
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
        unanswered = 0  # transactions spawned here whose reply is not written
        all_answered: Optional[asyncio.Event] = None  # awaited at EOF only

        async def reply(message: Dict[str, Any]) -> None:
            writer.write(encode_line(message))
            await writer.drain()

        def answer(request_id: Any, start: float, proc) -> None:
            """``proc``'s completion callback: write its reply, free its
            slot.  Runs in the engine's dispatch, so nothing may escape."""
            nonlocal unanswered
            try:
                frame = self._result_frame(request_id, start, proc)
                if not writer.is_closing():  # a peer that left still counted
                    writer.write(encode_line(frame))
            except Exception:  # noqa: BLE001 - contain, count, keep serving
                self.errors += 1
            finally:
                self._inflight -= 1
                self._inflight_sem.release()
                unanswered -= 1
                if all_answered is not None and not unanswered:
                    all_answered.set()

        try:
            await reply(
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "conn": conn_id,
                    "mobile": mobile_id,
                    "num_base": self.config.num_base,
                    "db_size": self.config.db_size,
                    "initial_value": self.config.initial_value,
                }
            )
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # a frame over the limit: what follows is the middle of
                    # it, so say why and leave (the transactions already in
                    # flight here are still answered below)
                    self.errors += 1
                    await reply(
                        error_reply(f"frame exceeds {MAX_LINE_BYTES} bytes")
                    )
                    break
                if not line:
                    break
                try:
                    message = decode_line(line)
                except ProtocolError as exc:
                    self.errors += 1
                    await reply(error_reply(str(exc)))
                    continue
                kind = message["type"]
                if kind == "txn":
                    if self._draining:
                        self.errors += 1
                        await reply(
                            error_reply("draining", message.get("id"))
                        )
                        continue
                    try:
                        ops = decode_ops(message.get("ops"))
                        acceptance = decode_acceptance(message.get("acceptance"))
                    except ProtocolError as exc:
                        self.errors += 1
                        await reply(error_reply(str(exc), message.get("id")))
                        continue
                    # backpressure: block the reader until a slot frees ...
                    await self._inflight_sem.acquire()
                    self._inflight += 1
                    unanswered += 1
                    start = time.monotonic()
                    self.engine.process(
                        self._serve_txn(mobile_id, ops, acceptance,
                                        str(message.get("label", ""))),
                        name="serve-txn",
                    ).add_callback(
                        functools.partial(answer, message.get("id"), start)
                    )
                    # ... and while this peer is not reading its replies
                    await writer.drain()
                elif kind == "ping":
                    await reply({"type": "pong", "id": message.get("id")})
                elif kind == "stats":
                    await reply(self._stats_reply())
                elif kind == "drain":
                    report = await self.drain()
                    await reply(report)
                    if message.get("stop"):
                        self.request_stop()
                else:
                    self.errors += 1
                    await reply(
                        error_reply(f"unknown frame type {kind!r}",
                                    message.get("id"))
                    )
            if unanswered:  # a half-closed client still gets its replies
                all_answered = asyncio.Event()
                await all_answered.wait()
        except (asyncio.CancelledError, ConnectionError):
            pass  # server shutdown, or a write to a peer that has left
        finally:
            if conn_task is not None:
                self._conn_tasks.discard(conn_task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

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
