"""The load-test client: N concurrent connections, open-loop arrivals.

``repro loadtest`` drives a running gateway with the existing
:mod:`repro.workload` generators — the model's uniform-update transactions
(optionally Zipf-skewed per the YCSB generator), the checkbook scenario
(debits guarded by the non-negative acceptance criterion, so rejections
actually happen), or TPC-B deposits — as ``clients`` concurrent
connections, each submitting on an independent Poisson schedule at
``rate / clients`` transactions per second.  Arrivals are **open-loop**:
a client never waits for a reply before sending the next transaction, so
server slowdowns surface as latency, not as reduced offered load.

Every client tracks its in-flight ids, records reply latency into an
O(1)-memory :class:`~repro.service.histogram.LatencyHistogram`, and sums
the increment deltas of *accepted* transactions.  After the send window
and a grace period for stragglers, the run (optionally) drains the server
and checks the oracle invariant end-to-end::

    store_sum == db_size * initial_value + sum(accepted increment deltas)

plus the server's own verdict on the drained system (the oracle every
simulated run gets: quiescence, accounting, base-tier convergence) and no
lost reply — a lost or phantom update anywhere on the live path (socket,
gateway, engine, locks, replay, propagation) breaks the equation.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.service.histogram import LatencyHistogram
from repro.service.protocol import encode_line, encode_op
from repro.txn.ops import IncrementOp, Operation
from repro.workload.profiles import ZipfProfile, uniform_update_profile
from repro.workload.tpcb import TpcbLayout, TpcbProfile

#: wait at most this long after the send window for straggler replies
_GRACE_SECONDS = 15.0

WORKLOADS = ("uniform", "checkbook", "tpcb")


@dataclass(frozen=True)
class LoadtestConfig:
    """One load-test run.

    ``db_size`` must match the server's for ``uniform``/``checkbook``;
    for ``tpcb`` the layout of ``branches`` defines it (see
    :meth:`effective_db_size`) and the server must be started with that
    size.
    """

    clients: int = 100
    rate: float = 2000.0  # total offered txns/sec across all clients
    duration: float = 5.0
    workload: str = "uniform"
    zipf_theta: float = 0.0  # > 0 skews the uniform workload
    actions: int = 2
    db_size: int = 1000
    branches: int = 1  # tpcb only
    seed: int = 0
    drain: bool = True  # drain the server and run the oracle at the end
    stop_server: bool = False  # ask the server to exit after draining

    def __post_init__(self) -> None:
        if self.clients <= 0:
            raise ConfigurationError("clients must be positive")
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.workload not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; pick from {WORKLOADS}"
            )
        if self.zipf_theta and not 0.0 < self.zipf_theta < 1.0:
            raise ConfigurationError(
                f"zipf_theta must be in (0, 1) or 0 to disable, "
                f"got {self.zipf_theta}"
            )

    def effective_db_size(self) -> int:
        if self.workload == "tpcb":
            return TpcbLayout(self.branches).db_size
        return self.db_size


# ---------------------------------------------------------------------- #
# transaction builders: ops on the wire + the accepted-delta contribution
# ---------------------------------------------------------------------- #


def _increment_delta(ops: List[Operation]) -> float:
    return sum(op.delta for op in ops if isinstance(op, IncrementOp))


class _TxnFactory:
    """Builds (wire ops, acceptance name, delta) triples for one client."""

    def __init__(self, config: LoadtestConfig, client_index: int):
        self.config = config
        # independent deterministic stream per client
        self.rng = random.Random(
            (config.seed * 1_000_003 + client_index) & 0xFFFFFFFF
        )
        workload = config.workload
        if workload == "tpcb":
            self._profile = TpcbProfile(TpcbLayout(config.branches))
            self.acceptance = "always"
        elif config.zipf_theta > 0:
            self._profile = ZipfProfile(
                config.actions, config.db_size, theta=config.zipf_theta
            )
            self.acceptance = "always"
        elif workload == "checkbook":
            self._profile = None  # hand-rolled below
            self.acceptance = "non-negative"
        else:
            self._profile = uniform_update_profile(
                config.actions, config.db_size, commutative=True
            )
            self.acceptance = "always"

    def build(self) -> Tuple[List[list], float]:
        if self.config.workload == "checkbook":
            # debit-heavy checks against shared accounts: some bounce, which
            # is the point — the rejection path gets real live coverage
            account = self.rng.randrange(self.config.db_size)
            amount = self.rng.choice([-50, -20, -10, 10, 20])
            ops: List[Operation] = [IncrementOp(account, amount)]
        else:
            ops = self._profile.build(self.rng)
        return [encode_op(op) for op in ops], _increment_delta(ops)


# ---------------------------------------------------------------------- #
# per-client stats
# ---------------------------------------------------------------------- #


class _ClientStats:
    __slots__ = (
        "sent", "accepted", "rejected", "errors", "lost",
        "accepted_delta", "histogram", "first_send", "last_reply",
    )

    def __init__(self) -> None:
        self.sent = 0
        self.accepted = 0
        self.rejected = 0
        self.errors = 0
        self.lost = 0  # sent but never answered within the grace window
        self.accepted_delta = 0.0
        self.histogram = LatencyHistogram()
        self.first_send: Optional[float] = None
        self.last_reply: Optional[float] = None


async def _open_connection(host, port, unix_path):
    if unix_path is not None:
        return await asyncio.open_unix_connection(unix_path)
    return await asyncio.open_connection(host or "127.0.0.1", port)


class _StartBarrier:
    """Opens when the last of ``parties`` clients has read its welcome, so
    the measured window reflects steady concurrency, not a connection ramp."""

    def __init__(self, parties: int):
        self._missing = parties
        self._open = asyncio.Event()

    async def arrive(self) -> None:
        self._missing -= 1
        if self._missing == 0:
            self._open.set()
        await self._open.wait()


async def _client_run(
    config: LoadtestConfig,
    index: int,
    host: Optional[str],
    port: Optional[int],
    unix_path: Optional[str],
    start_barrier: _StartBarrier,
) -> Tuple[_ClientStats, Dict[str, Any]]:
    stats = _ClientStats()
    factory = _TxnFactory(config, index)
    reader, writer = await _open_connection(host, port, unix_path)

    loop = asyncio.get_running_loop()
    pending: Dict[str, Tuple[float, float]] = {}  # id -> (sent_at, delta)
    client_rate = config.rate / config.clients
    sender_done = asyncio.Event()

    async def sender(deadline: float) -> None:
        seq = 0
        next_at = loop.time()
        try:
            while True:
                next_at += factory.rng.expovariate(client_rate)
                if next_at >= deadline:
                    break
                delay = next_at - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                ops, delta = factory.build()
                seq += 1
                txn_id = f"{index}-{seq}"
                now = loop.time()
                pending[txn_id] = (now, delta)
                if stats.first_send is None:
                    stats.first_send = now
                stats.sent += 1
                writer.write(encode_line({
                    "type": "txn",
                    "id": txn_id,
                    "ops": ops,
                    "acceptance": factory.acceptance,
                }))
                await writer.drain()  # backpressure point: may block
        finally:
            sender_done.set()

    async def receiver() -> None:
        while True:
            if sender_done.is_set() and not pending:
                return
            try:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=_GRACE_SECONDS
                )
            except asyncio.TimeoutError:
                stats.lost += len(pending)
                pending.clear()
                return
            if not line:
                stats.lost += len(pending)
                pending.clear()
                return
            reply = json.loads(line)
            kind = reply.get("type")
            if kind not in ("result", "error"):
                continue
            entry = pending.pop(reply.get("id"), None)
            now = loop.time()
            stats.last_reply = now
            if kind == "error":
                stats.errors += 1
                continue
            if entry is not None:
                stats.histogram.record(now - entry[0])
            if reply["status"] == "accepted":
                stats.accepted += 1
                if entry is not None:
                    stats.accepted_delta += entry[1]
            elif reply["status"] == "rejected":
                stats.rejected += 1
            else:
                stats.errors += 1

    try:
        welcome = json.loads(await reader.readline())
        await start_barrier.arrive()
        await asyncio.gather(
            sender(loop.time() + config.duration), receiver()
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
    return stats, welcome


async def _drain_server(host, port, unix_path, stop_server: bool) -> dict:
    reader, writer = await _open_connection(host, port, unix_path)
    try:
        await reader.readline()  # welcome
        writer.write(encode_line({"type": "drain", "stop": stop_server}))
        await writer.drain()
        while True:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed before drained reply")
            reply = json.loads(line)
            if reply.get("type") == "drained":
                return reply
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


# ---------------------------------------------------------------------- #
# the run
# ---------------------------------------------------------------------- #


async def run_loadtest(
    config: LoadtestConfig,
    host: Optional[str] = None,
    port: Optional[int] = None,
    unix_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Drive the gateway and return the result document (see docs/service.md)."""
    start_barrier = _StartBarrier(config.clients)
    tasks = [
        asyncio.ensure_future(
            _client_run(config, i, host, port, unix_path, start_barrier)
        )
        for i in range(config.clients)
    ]
    try:
        outcomes = await asyncio.gather(*tasks)
    except BaseException:
        # one client failed (say, could not connect): the barrier would
        # never open for the rest, so end them and fail the run now
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise

    histogram = LatencyHistogram()
    sent = accepted = rejected = errors = lost = 0
    accepted_delta = 0.0
    first_send: Optional[float] = None
    last_reply: Optional[float] = None
    welcome = outcomes[0][1]
    for stats, _ in outcomes:
        histogram.merge(stats.histogram)
        sent += stats.sent
        accepted += stats.accepted
        rejected += stats.rejected
        errors += stats.errors
        lost += stats.lost
        accepted_delta += stats.accepted_delta
        if stats.first_send is not None:
            first_send = (
                stats.first_send if first_send is None
                else min(first_send, stats.first_send)
            )
        if stats.last_reply is not None:
            last_reply = (
                stats.last_reply if last_reply is None
                else max(last_reply, stats.last_reply)
            )

    elapsed = (
        (last_reply - first_send)
        if first_send is not None and last_reply is not None
        else config.duration
    )
    elapsed = max(elapsed, 1e-9)
    completed = accepted + rejected

    result: Dict[str, Any] = {
        "schema": 1,
        "kind": "service-loadtest",
        "config": {
            "clients": config.clients,
            "rate": config.rate,
            "duration": config.duration,
            "workload": config.workload,
            "zipf_theta": config.zipf_theta,
            "actions": config.actions,
            "db_size": config.effective_db_size(),
            "branches": config.branches,
            "seed": config.seed,
        },
        "sent": sent,
        "completed": completed,
        "accepted": accepted,
        "rejected": rejected,
        "errors": errors,
        "lost": lost,
        "elapsed_seconds": round(elapsed, 4),
        "throughput_committed_per_sec": round(accepted / elapsed, 2),
        "completed_per_sec": round(completed / elapsed, 2),
        "rejection_rate": round(rejected / completed, 6) if completed else 0.0,
        "latency_ms": histogram.summary_ms((50.0, 90.0, 95.0, 99.0)),
        "histogram": histogram.to_dict(),
    }

    if config.drain:
        drained = await _drain_server(host, port, unix_path, config.stop_server)
        initial_value = welcome.get("initial_value", 0)
        db_size = welcome.get("db_size", config.effective_db_size())
        expected = db_size * initial_value + accepted_delta
        store_sum = drained.get("store_sum", 0)
        sum_ok = (
            abs(store_sum - expected) < 1e-6
            if isinstance(expected, float) or isinstance(store_sum, float)
            else store_sum == expected
        )
        # the server's verdict covers what it can see; only this client
        # knows which deltas it was told were accepted
        oracle = {
            "ok": bool(sum_ok and drained.get("ok") and lost == 0),
            "store_sum": store_sum,
            "expected_store_sum": expected,
            "accepted_delta_sum": accepted_delta,
            "base_divergence": drained.get("base_divergence"),
            "wal_quiescent": drained.get("wal_quiescent"),
            "failures": drained.get("failures"),
            "lost_replies": lost,
        }
        result["oracle"] = oracle
        result["server"] = {
            key: drained.get(key)
            for key in (
                "served", "accepted", "rejected", "errors",
                "connections_total", "uptime_seconds", "latency_ms",
                "io", "engine", "metrics",
            )
        }
    return result
