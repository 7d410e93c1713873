"""The two served workloads: one ``repro serve`` process, one generator.

The end-to-end run talks to a real server process over a unix socket in a
temp dir: readiness is a successful ``connect`` (not the socket file), the
server's CPU and peak RSS come from ``/proc`` while it is still alive, it
is drained before it is stopped, and it is always reaped.  The traced run
hosts :class:`~repro.service.gateway.ServiceGateway` on the generator's own
loop instead, so the layers can be wrapped in this process.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import (
    Any, Awaitable, Callable, Dict, Iterator, List, Optional, Tuple,
)

from repro.service.gateway import GatewayConfig, ServiceGateway

from benchmarks.ladder import layers
from benchmarks.ladder.des import peak_rss_mb, percentile
from benchmarks.ladder.loadgen import (
    LoadGenerator, Phase, SvcWorkload, TxnStream, WORKLOADS,
)
from benchmarks.ladder.manifest import OUT_DIR, PER_LAYER, ROOT, SETUP_PROBES
from benchmarks.ladder.spans import SpanRecorder

#: the rate every latency and CPU figure is quoted at
OPEN_RATE = 1000.0
RUNGS = (500.0, 2000.0)
#: a rung is "ok" when its p99 stays under this and no backlog grows
RUNG_LIMIT_MS = 25.0
SEGMENTS = 5
#: closed loop: transactions in flight per connection
OUTSTANDING = 16
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerDied(RuntimeError):
    """The server process exited while the benchmark still needed it."""


class ServerProcess:
    """One ``python -m repro serve`` child on a unix socket."""

    def __init__(self, workload: SvcWorkload, tmp_dir: str):
        # relative to the cwd the child shares: a checkout path can be
        # longer than sun_path allows
        self.socket_path = os.path.relpath(os.path.join(tmp_dir, "g.sock"))
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._stderr = open(os.path.join(tmp_dir, "server.err"), "wb")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", self.socket_path,
                "--db-size", str(workload.db_size),
                "--initial-value", str(workload.initial_value),
            ],
            env=env, stdout=subprocess.DEVNULL, stderr=self._stderr,
        )

    def wait_ready(self, timeout: float = 30.0) -> float:
        """Seconds from spawn to the first accepted connection."""
        deadline = self.spawned + timeout
        while time.perf_counter() < deadline:
            self.check_alive()
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket_path)
                return time.perf_counter() - self.spawned
            except OSError:
                time.sleep(0.002)
            finally:
                probe.close()
        raise ServerDied("server did not accept a connection in time")

    def check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise ServerDied(
                f"server exited early with code {self.proc.returncode}: "
                + self.stderr_tail()
            )

    def stderr_tail(self) -> str:
        self._stderr.flush()
        with open(self._stderr.name, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def cpu_seconds(self) -> float:
        """utime + stime of the live server, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.proc.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def drain(self) -> Dict[str, Any]:
        """Send the drain frame and return the drained-state report."""
        self.check_alive()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(30.0)
            conn.connect(self.socket_path)
            stream = conn.makefile("rwb")
            stream.readline()  # welcome
            stream.write(b'{"type":"drain"}\n')
            stream.flush()
            while True:
                line = stream.readline()
                if not line:
                    raise ServerDied("server closed before the drained reply")
                reply = json.loads(line)
                if reply.get("type") == "drained":
                    return reply

    def stop(self) -> None:
        """Terminate (SIGTERM is the server's clean stop) and reap."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._stderr.close()


def _tmp_dir() -> str:
    return tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)


@dataclass
class Served:
    """What one server lifetime left behind."""

    generator: LoadGenerator
    drained: Dict[str, Any]
    ready_s: float
    peak_rss_mb: float


def with_server(
    name: str, seed: int, tmp_dir: str,
    plan: Callable[[LoadGenerator, ServerProcess], Awaitable[None]],
) -> Served:
    """The one server lifecycle, for every run that needs a server process.

    Spawn; ready on the first accepted ``connect``; run ``plan`` on a
    generator with its two connections open; drain; read peak RSS from
    ``/proc`` while the server still lives; terminate and reap.  A server
    that exits, drops a connection or leaves a phase wholly unanswered
    raises :class:`ServerDied`.
    """
    server = ServerProcess(WORKLOADS[name], tmp_dir)
    try:
        ready_s = server.wait_ready()

        async def drive() -> LoadGenerator:
            generator = LoadGenerator(TxnStream(name, seed))
            await generator.connect(server.socket_path)
            try:
                await plan(generator, server)
            finally:
                await generator.close()
            return generator

        generator = asyncio.run(drive())
        if generator.disconnected:
            server.check_alive()
            raise ServerDied("server closed a connection mid-run")
        for phase in generator.phases:
            if phase.sent and not phase.replies:
                server.check_alive()
                raise ServerDied(
                    f"phase {phase.label!r}: none of {phase.sent} "
                    "transactions was answered"
                )
        drained = server.drain()
        rss_mb = server.peak_rss_mb()
        server.check_alive()
    finally:
        server.stop()
    return Served(generator, drained, ready_s, rss_mb)


async def _no_load(generator: LoadGenerator, server: ServerProcess) -> None:
    """The plan of a set-up probe: connect and leave."""


# ---------------------------------------------------------------------- #
# the oracle
# ---------------------------------------------------------------------- #

def judge(
    drained: Dict[str, Any], workload: SvcWorkload, accepted_delta: int,
    phases: List[Phase],
) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) for a finished, drained run.

    A rejection is an answer, not a failure.  Errors and lost replies fail
    one transaction each; a drained state that does not add up fails the
    whole run — an update was lost or invented somewhere on the path.
    """
    attempted = sum(phase.sent for phase in phases)
    reasons = []
    expected = workload.db_size * workload.initial_value + accepted_delta
    if drained.get("store_sum") != expected:
        reasons.append(
            f"store_sum {drained.get('store_sum')} != {expected} "
            "(db_size * initial + accepted deltas)"
        )
    if drained.get("base_divergence") != 0:
        reasons.append(f"base divergence {drained.get('base_divergence')}")
    if not drained.get("wal_quiescent"):
        reasons.append("WAL not quiescent after drain")
    if reasons:
        return attempted, attempted, reasons
    failed = sum(phase.errors + phase.lost for phase in phases)
    if failed:
        reasons.append(f"{failed} transactions errored or went unanswered")
    return attempted, failed, reasons


# ---------------------------------------------------------------------- #
# end-to-end run
# ---------------------------------------------------------------------- #

def _arrivals(name: str, seed: int, label: str) -> random.Random:
    return random.Random(f"{name}/{seed}/arrivals/{label}")


def _window_stats(phase: Phase, seconds: float, windows: int):
    """Per-window latency lists, split by due time."""
    buckets: List[List[float]] = [[] for _ in range(windows)]
    width = seconds / windows
    for due, latency_ms, _ in phase.replies:
        index = min(int((due - phase.started) / width), windows - 1)
        buckets[index].append(latency_ms)
    return buckets


@contextlib.contextmanager
def _on_one_cpu(server: ServerProcess) -> Iterator[None]:
    """Server and generator share one CPU while the body runs.

    Both are busy in the closed loop, and left free they run side by side
    on the two vCPUs or take turns on one's worth, for minutes at a time:
    the same code read 5.9 k and 8.0 k replies/s in alternate runs, and
    5.6-6.2 k whenever the two were held on one CPU.  Sharing one CPU makes
    the capacity figure the cost of one reply (server plus generator),
    which is what a change to the server moves.
    """
    allowed = os.sched_getaffinity(0)
    one = {min(allowed)}
    os.sched_setaffinity(server.proc.pid, one)
    os.sched_setaffinity(0, one)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
        if server.proc.poll() is None:
            os.sched_setaffinity(server.proc.pid, allowed)


def measure(
    name: str, seed: int, seconds: float, log: Callable[[str], None],
) -> Dict[str, Any]:
    """Warm-up, 1000/s open loop in five windows, closed loop in five."""
    cpu_marks: List[float] = []

    async def plan(generator: LoadGenerator, server: ServerProcess) -> None:
        await generator.open_loop(
            "warm-up", OPEN_RATE, 0.05 * seconds,
            _arrivals(name, seed, "warm-up"),
        )
        await generator.open_loop(
            "open", OPEN_RATE, 0.5 * seconds, _arrivals(name, seed, "open"),
            on_window=lambda: cpu_marks.append(server.cpu_seconds()),
            windows=SEGMENTS,
        )
        with _on_one_cpu(server):
            await generator.closed_loop(
                "closed", OUTSTANDING, 0.025 * seconds, 0.06 * seconds,
                SEGMENTS,
            )

    tmp_dir = _tmp_dir()
    try:
        ready_s = [
            with_server(name, seed, tmp_dir, _no_load).ready_s
            for _ in range(SETUP_PROBES - 1)
        ]
        served = with_server(name, seed, tmp_dir, plan)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    ready_s.append(served.ready_s)

    generator = served.generator
    attempted, failed, reasons = judge(
        served.drained, WORKLOADS[name], generator.accepted_delta,
        generator.phases,
    )
    open_phase, closed_phase = generator.phases[1], generator.phases[2]
    windows = _window_stats(open_phase, 0.5 * seconds, SEGMENTS)
    # a window without a reply lost its transactions; with_server has
    # checked that the phase as a whole was answered
    answered = [i for i in range(SEGMENTS) if windows[i]]
    if len(answered) < SEGMENTS:
        failed = attempted
        reasons.append(
            f"{SEGMENTS - len(answered)} of {SEGMENTS} open-loop windows "
            "got no reply"
        )
    for reason in reasons:
        log(f"failed: {reason}")

    # cpu_marks: SEGMENTS + 1 readings — each window's start, then one
    # after the last reply
    cpu_us = [
        (cpu_marks[i + 1] - cpu_marks[i]) / len(windows[i]) * 1e6
        for i in answered
    ]
    marks = closed_phase.marks
    rates = [
        (n1 - n0) / (t1 - t0)
        for (t0, n0), (t1, n1) in zip(marks, marks[1:])
    ]
    median = statistics.median
    replies = open_phase.answered + closed_phase.answered
    log(
        f"open loop {OPEN_RATE:g}/s: {len(open_phase.replies)} latency "
        f"samples in {SEGMENTS} windows (from due time; generator late p99 "
        f"{percentile(open_phase.late_ms, 99):.3f} ms); closed loop "
        f"{OUTSTANDING} x 2: {closed_phase.answered} replies; rejected "
        f"{(open_phase.rejected + closed_phase.rejected) / replies:.3f}"
    )
    values = {
        "setup_s": median(ready_s),
        # the served cell: the fixed 1000/s schedule, from its start to
        # its last reply — not a capacity figure, sat_txn_per_s is
        "cell_wall_s": max(
            due + latency_ms / 1e3 for due, latency_ms, _ in open_phase.replies
        ) - open_phase.started,
        "peak_rss_mb": served.peak_rss_mb,
        "lat_p50_ms": median(percentile(windows[i], 50) for i in answered),
        "sat_txn_per_s": median(rates),
        "server_cpu_us_per_txn": median(cpu_us),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
    }


# ---------------------------------------------------------------------- #
# traced run
# ---------------------------------------------------------------------- #

def _rung_ok(phase: Phase) -> bool:
    """p99 under the limit and the last third no slower than the first."""
    if phase.lost or phase.errors or not phase.replies:
        return False
    latencies = [latency for _, latency, _ in phase.replies]
    third = max(len(latencies) // 3, 1)
    growing = (
        statistics.median(latencies[-third:])
        > 2.0 * statistics.median(latencies[:third]) + 1.0
    )
    return percentile(latencies, 99) <= RUNG_LIMIT_MS and not growing


async def _in_process(
    name: str, seed: int, label: str, seconds: float, tmp_dir: str,
    recorder: Optional[SpanRecorder],
) -> Dict[str, Any]:
    """Gateway and generator on one loop (as ``service.bench._run_pair``)."""
    workload = WORKLOADS[name]
    path = os.path.relpath(os.path.join(tmp_dir, f"{label}.sock"))
    t0 = time.perf_counter()
    gateway = ServiceGateway(GatewayConfig(
        db_size=workload.db_size, initial_value=workload.initial_value,
    ))
    await gateway.start(unix_path=path)
    server_task = asyncio.create_task(gateway.run())
    build_s = time.perf_counter() - t0
    generator = LoadGenerator(TxnStream(name, seed))
    if recorder is not None:
        generator._on_reply = recorder.wrap(
            "loadgen", "LoadGenerator._on_reply", generator._on_reply
        )
        generator._send = recorder.wrap(
            "loadgen", "LoadGenerator._send", generator._send
        )
    profiler = None
    try:
        await generator.connect(path)
        # same warm-up as the server process gets: the checkbook's
        # rejection share is a steady state only after it
        await generator.open_loop(
            "warm-up", OPEN_RATE, seconds / 3,
            _arrivals(name, seed, "warm-up"),
        )
        if recorder is not None:
            recorder.reset()
            profiler = layers.SpanProfiler(recorder)
            profiler.install(gateway.engine)
        events0 = gateway.engine.events_scheduled
        cpu0 = time.process_time()
        phase = await generator.open_loop(
            label, OPEN_RATE, seconds, _arrivals(name, seed, label)
        )
        cpu_s = time.process_time() - cpu0
        t1 = time.perf_counter()
        drained = await gateway.drain()
        drain_s = time.perf_counter() - t1
    finally:
        await generator.close()
        gateway.request_stop()
        await server_task
        if profiler is not None:
            profiler.uninstall()
    return {
        "phase": phase, "generator": generator, "drained": drained,
        "cpu_s": cpu_s, "build_s": build_s, "drain_s": drain_s,
        "drive_s": phase.ended - phase.started, "profiler": profiler,
        "events": gateway.engine.events_scheduled - events0,
        "materialized": sum(gateway.system.materialized_counts()),
        "metrics": gateway.system.metrics,
    }


def trace(
    name: str, seed: int, seconds: float, trace_path: str,
    log: Callable[[str], None],
) -> Dict[str, Any]:
    """Per-layer numbers: a server process for the load-generator rows and
    the free gateway rows, then the in-process pair, plain and traced."""
    own_cpu: List[float] = []

    async def plan(generator: LoadGenerator, server: ServerProcess) -> None:
        """Warm-up, 1000/s and the two rungs against a real server."""
        await generator.open_loop(
            "warm-up", OPEN_RATE, 0.05 * seconds,
            _arrivals(name, seed, "warm-up"),
        )
        own_cpu.append(time.process_time())
        await generator.open_loop(
            "open", OPEN_RATE, 0.15 * seconds, _arrivals(name, seed, "open"),
        )
        own_cpu.append(time.process_time())
        for rate in RUNGS:
            await generator.open_loop(
                f"rung-{rate:g}", rate, 0.15 * seconds,
                _arrivals(name, seed, f"rung-{rate:g}"),
            )

    tmp_dir = _tmp_dir()
    try:
        served = with_server(name, seed, tmp_dir, plan)
        plain = asyncio.run(_in_process(
            name, seed, "plain", 0.1 * seconds, tmp_dir, None
        ))
        recorder = SpanRecorder()
        with layers.traced(recorder):
            traced = asyncio.run(_in_process(
                name, seed, "traced", 0.15 * seconds, tmp_dir, recorder
            ))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    recorder.write_chrome_trace(trace_path, {"workload": name, "seed": seed})
    return _layer_table(
        WORKLOADS[name], served.generator, served.drained, own_cpu, plain,
        traced, recorder, trace_path, log,
    )


def _layer_table(
    workload, remote, remote_drained, own_cpu, plain, traced,
    recorder, trace_path, log,
) -> Dict[str, Any]:
    """Judge the three runs and compute every per-layer metric."""
    attempted = failed = 0
    for run_name, drained, generator in (
        ("server process", remote_drained, remote),
        ("in-process plain", plain["drained"], plain["generator"]),
        ("in-process traced", traced["drained"], traced["generator"]),
    ):
        tried, bad, reasons = judge(
            drained, workload, generator.accepted_delta, generator.phases
        )
        attempted += tried
        failed += bad
        for reason in reasons:
            log(f"{run_name} failed: {reason}")

    open_phase = remote.phases[1]
    rungs = {500.0: remote.phases[2], 1000.0: open_phase,
             2000.0: remote.phases[3]}
    latency = [lat for _, lat, _ in open_phase.replies]
    engine_ms = [eng for _, _, eng in open_phase.replies]
    phase: Phase = traced["phase"]
    txns = max(phase.answered, 1)
    profiler: layers.SpanProfiler = traced["profiler"]
    metrics = traced["metrics"]

    serve_txn = profiler.buckets.get("serve-txn")
    traced_cpu_us = traced["cpu_s"] / txns * 1e6
    plain_cpu_us = plain["cpu_s"] / max(plain["phase"].answered, 1) * 1e6
    all_spans_us = sum(recorder.self_ns) / 1e3 / txns
    counters = {"cert_aborts": 0, **metrics.as_dict()}
    # 0 where a layer has no work here: no oracle pass, no certifier, no
    # workload process, and a loop that idles between arrivals has no
    # per-event self time
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(layers.layer_values(recorder, txns, counters))
    values.update({
        "lat_p99_ms": percentile(latency, 99),
        "harness.build_s": traced["build_s"],
        "harness.drive_s": traced["drive_s"],
        "harness.divergence_s": traced["drain_s"],
        "trace.overhead_share": traced_cpu_us / plain_cpu_us - 1.0,
        "sim.events_per_txn": (
            plain["events"] / max(plain["phase"].answered, 1)
        ),
        "sim.events_per_cpu_s": plain["events"] / plain["cpu_s"],
        "storage.store.materialized_total": float(traced["materialized"]),
        "service.wallclock.dispatches_per_txn": profiler.total_dispatches / txns,
        "service.wallclock.callback_us_per_txn": (
            profiler.total_seconds / txns * 1e6
        ),
        "service.gateway.serve_txn_steps_per_txn": (
            serve_txn.calls / txns if serve_txn else 0.0
        ),
        "service.gateway.engine_ms_p50": percentile(engine_ms, 50),
        "service.gateway.transport_ms_p50": percentile(
            [lat - eng for lat, eng in zip(latency, engine_ms)], 50
        ),
        "service.gateway.noticed_share": open_phase.noticed / max(
            open_phase.answered, 1
        ),
        # CPU of this process that no span covers: the event loop, streams
        # and selector — for both ends of the socket, since they share it
        "service.gateway.asyncio_us_per_txn": traced_cpu_us - all_spans_us,
        "core.acceptance.rejected_share": open_phase.rejected / max(
            open_phase.answered, 1
        ),
        "loadgen.late_p99_ms": percentile(open_phase.late_ms, 99),
        "loadgen.cpu_share": (
            (own_cpu[1] - own_cpu[0]) / (open_phase.ended - open_phase.started)
        ),
        "loadgen.rung_r500_p99_ms": percentile(
            [lat for _, lat, _ in rungs[500.0].replies], 99
        ),
        "loadgen.rung_r2000_p99_ms": percentile(
            [lat for _, lat, _ in rungs[2000.0].replies], 99
        ),
        "loadgen.max_rung_ok": max(
            [rate for rate, rung in rungs.items() if _rung_ok(rung)],
            default=0.0,
        ),
    })
    log(
        f"traced in-process {phase.answered} txns at {OPEN_RATE:g}/s offered "
        f"({traced_cpu_us:.0f} us CPU/txn vs {plain_cpu_us:.0f} plain); "
        f"{sum(recorder.calls)} spans, {recorder.dropped} not kept; "
        f"trace -> {trace_path}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
    }
