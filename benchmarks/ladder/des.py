"""The two simulated workloads, driven through the harness's public steps.

A *cell* is one simulated experiment: ``build_system`` ->
``WorkloadGenerator(...).start`` -> ``system.run`` -> ``faults.oracle.evaluate``
-> ``system.divergence()`` — the steps ``run_experiment`` takes, taken here
one by one so each has its own timer.  The drive is advanced in
:data:`SLICES` equal slices of simulated time; the host milliseconds per
slice are the simulator's "latency" (how long a user waits for the next
slice of simulated time), and their tail shows GC pauses and the
µs-per-event rise over a long run.

Both workloads scale their simulated horizon with ``--seconds`` so that a
run of six cells (one discarded, five timed) fills the measured window.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.analytic.parameters import ModelParameters
from repro.faults.oracle import evaluate as evaluate_oracle
from repro.harness.experiment import ExperimentConfig, build_system
from repro.placement import Placement
from repro.txn.ops import Operation, ReadOp, WriteOp
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import uniform_update_profile

#: timed cells per run (after one discarded warm-up cell)
REPEATS = 5
#: drive slices per cell — the sample unit of lat_p50_ms / lat_p99_ms
SLICES = 100

#: counters that must repeat exactly between cells of one seed
COUNTERS = (
    "events", "commits", "aborts", "waits", "deadlocks", "messages",
    "cert_aborts",
)


class ReadMostlyProfile:
    """Half 4-read read-only transactions, half 2-read/2-write.

    Reads beside writes: the read-only half must commit without touching
    the certifier, so a sequencer change that taxes readers shows up.
    """

    def __init__(self, db_size: int):
        self.db_size = db_size

    def build(self, rng: random.Random) -> List[Operation]:
        a, b, c, d = rng.sample(range(self.db_size), 4)
        if rng.random() < 0.5:
            return [ReadOp(a), ReadOp(b), ReadOp(c), ReadOp(d)]
        return [
            ReadOp(a), ReadOp(b),
            WriteOp(c, rng.randrange(1_000_000)),
            WriteOp(d, rng.randrange(1_000_000)),
        ]


@dataclass(frozen=True)
class DesWorkload:
    strategy: str
    params: ModelParameters
    #: simulated seconds per ``--seconds`` second (sized so a cell takes
    #: just under a sixth of the run on the reference box: the warm-up cell
    #: and the five timed ones together fill the measured window)
    sim_per_second: float
    placement: Optional[str]
    profile: Callable[[ModelParameters], Any]

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            self.strategy,
            self.params,
            seed=seed,
            placement=(
                Placement.from_spec(self.placement) if self.placement else None
            ),
        )


WORKLOADS: Dict[str, DesWorkload] = {
    "des_eager_hot": DesWorkload(
        strategy="eager-group",
        params=ModelParameters(
            db_size=100, nodes=3, tps=40, actions=4,
            action_time=0.002, message_delay=0.001,
        ),
        sim_per_second=7.5,
        placement=None,
        profile=lambda p: uniform_update_profile(p.actions, p.db_size),
    ),
    "des_certify_sharded": DesWorkload(
        strategy="deferred-update",
        params=ModelParameters(
            db_size=50_000, nodes=32, tps=10, actions=4,
            action_time=0.002, message_delay=0.001,
        ),
        sim_per_second=1.9,
        placement="hash:k=3",
        profile=lambda p: ReadMostlyProfile(p.db_size),
    ),
}


@dataclass
class Cell:
    """Everything one cell measured."""

    build_s: float
    drive_s: float
    oracle_s: float
    divergence_s: float
    wall_s: float
    cpu_s: float
    drive_cpu_s: float
    gc_s: float
    slice_ms: List[float]
    submitted: int
    counters: Dict[str, int]
    materialized_total: int
    ok: bool
    why: str
    profiler: Optional[Any]


class _GcTimer:
    """Sum of collector pauses, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started


def run_cell(
    workload: DesWorkload,
    seed: int,
    sim_seconds: float,
    profiler: Optional[Any] = None,
) -> Cell:
    """One cell; ``profiler`` (an ``obs.Profiler``) rides on its engine."""
    gc_timer = _GcTimer()
    gc.callbacks.append(gc_timer)
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        system = build_system(workload.config(seed))
        if profiler is not None:
            profiler.install(system.engine)
        generator = WorkloadGenerator(
            system, workload.profile(workload.params), tps=workload.params.tps
        )
        generator.start(sim_seconds)
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        slice_ms = []
        for i in range(1, SLICES + 1):
            s0 = time.perf_counter()
            system.run(until=sim_seconds * i / SLICES)
            slice_ms.append((time.perf_counter() - s0) * 1e3)
        system.run()  # drain what the last arrivals left in flight
        t2 = time.perf_counter()
        cpu2 = time.process_time()
        verdict = evaluate_oracle(system)
        t3 = time.perf_counter()
        diverged = system.divergence()
        t4 = time.perf_counter()
        cpu4 = time.process_time()
    finally:
        gc.callbacks.remove(gc_timer)
        if profiler is not None:
            profiler.uninstall()
    metrics = system.metrics
    counted = dict(metrics.as_dict(), events=system.engine.events_scheduled)
    counters = {name: int(counted.get(name, 0)) for name in COUNTERS}
    why = ""
    if not verdict.ok:
        why = verdict.describe()
    elif diverged:
        why = f"{diverged} objects diverged"
    elif metrics.commits + metrics.aborts != generator.submitted:
        why = "submitted transactions neither committed nor aborted"
    return Cell(
        build_s=t1 - t0,
        drive_s=t2 - t1,
        oracle_s=t3 - t2,
        divergence_s=t4 - t3,
        wall_s=t4 - t0,
        cpu_s=cpu4 - cpu0,
        drive_cpu_s=cpu2 - cpu1,
        gc_s=gc_timer.seconds,
        slice_ms=slice_ms,
        submitted=generator.submitted,
        counters=counters,
        materialized_total=sum(system.materialized_counts()),
        ok=not why,
        why=why,
        profiler=profiler,
    )


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a live process.  (``ru_maxrss`` is no substitute: after
    ``exec`` it still carries the forking parent's high-water mark.)"""
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def measure(
    name: str, seed: int, seconds: float, setup_s: float,
    log: Callable[[str], None],
) -> Dict[str, Any]:
    """The end-to-end run: one warm-up cell, then :data:`REPEATS` timed."""
    workload = WORKLOADS[name]
    sim_seconds = workload.sim_per_second * seconds
    run_cell(workload, seed, sim_seconds)  # warm-up, discarded
    cells = [run_cell(workload, seed, sim_seconds) for _ in range(REPEATS)]
    failed = 0
    for index, cell in enumerate(cells):
        why = cell.why
        if not why and cell.counters != cells[0].counters:
            why = f"counters differ from repeat 1: {cell.counters}"
        if why:
            failed += 1
            log(f"repeat {index + 1} failed: {why}")
    median = statistics.median
    slices = [ms for cell in cells for ms in cell.slice_ms]
    log(
        f"{REPEATS} cells of {sim_seconds:g} simulated s, "
        f"{cells[0].submitted} txns, counters {cells[0].counters}; "
        f"latency = host ms per slice of {sim_seconds / SLICES:g} simulated s, "
        f"{len(slices)} samples; cell wall s "
        + " ".join(f"{cell.wall_s:.3f}" for cell in cells)
    )
    values = {
        "setup_s": setup_s,
        "cell_wall_s": median(cell.wall_s for cell in cells),
        "peak_rss_mb": peak_rss_mb(),
        "lat_p50_ms": median(
            percentile(cell.slice_ms, 50) for cell in cells
        ),
        "sat_txn_per_s": median(
            cell.submitted / cell.drive_s for cell in cells
        ),
        "server_cpu_us_per_txn": median(
            cell.cpu_s / cell.submitted * 1e6 for cell in cells
        ),
    }
    return {
        "correct": failed == 0,
        "attempted": REPEATS,
        "failed": failed,
        "values": values,
    }


def trace(
    name: str, seed: int, seconds: float, trace_path: str,
    log: Callable[[str], None],
) -> Dict[str, Any]:
    """The traced run: one plain cell, then one cell with every layer wrapped."""
    # imported here so the setup probe pays only what a simulation pays
    from benchmarks.ladder import layers
    from benchmarks.ladder.manifest import PER_LAYER
    from benchmarks.ladder.spans import SpanRecorder

    workload = WORKLOADS[name]
    sim_seconds = workload.sim_per_second * seconds
    plain = run_cell(workload, seed, sim_seconds)
    recorder = SpanRecorder()
    with layers.traced(recorder):
        traced = run_cell(
            workload, seed, sim_seconds, layers.SpanProfiler(recorder)
        )
    recorder.write_chrome_trace(
        trace_path,
        {"workload": name, "seed": seed, "simulated_seconds": sim_seconds},
    )
    failed = sum(not cell.ok for cell in (plain, traced))
    for cell in (plain, traced):
        if cell.why:
            log(f"cell failed: {cell.why}")
    if traced.counters != plain.counters:
        failed += 1
        log(f"tracing changed the run: {traced.counters} != {plain.counters}")

    counters = traced.counters
    values = dict.fromkeys(PER_LAYER, 0.0)  # 0: the service does no work here
    values.update(layers.layer_values(recorder, traced.submitted, counters))
    values.update({
        "lat_p99_ms": percentile(plain.slice_ms, 99),
        "harness.build_s": traced.build_s,
        "harness.drive_s": traced.drive_s,
        "harness.divergence_s": traced.divergence_s,
        "faults.oracle_s": traced.oracle_s,
        "trace.overhead_share": traced.wall_s / plain.wall_s - 1.0,
        "sim.events_per_txn": plain.counters["events"] / plain.submitted,
        "sim.events_per_cpu_s": plain.counters["events"] / plain.drive_cpu_s,
        "sim.loop_self_us_per_event": (
            (traced.drive_s - traced.profiler.total_seconds)
            / counters["events"] * 1e6
        ),
        "storage.store.materialized_total": float(traced.materialized_total),
        "runtime.gc_s_share": plain.gc_s / plain.wall_s,
    })
    steps = (
        traced.build_s + traced.drive_s + traced.oracle_s + traced.divergence_s
    )
    log(
        f"traced cell {traced.wall_s:.3f} s (steps sum {steps:.3f} s), plain "
        f"cell {plain.wall_s:.3f} s; {sum(recorder.calls)} spans, "
        f"{recorder.dropped} not kept; trace -> {trace_path}"
    )
    return {
        "correct": failed == 0,
        "attempted": 2,
        "failed": min(failed, 2),
        "values": values,
    }


def setup_probe(name: str, seed: int) -> None:
    """What a DES user pays before the first event: imports (already done
    when this runs) plus ``build_system``.  Run in a fresh child process."""
    build_system(WORKLOADS[name].config(seed))
