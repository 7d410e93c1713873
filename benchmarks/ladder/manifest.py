"""What the benchmark declares: workloads, metrics, seeds, run length.

``BENCHMARK.json`` at the repo root is generated from this module
(``python -m benchmarks.ladder --write-manifest``); the runner reads units
from here, so a metric cannot be printed without being declared.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: traces and per-run temp dirs (git-ignored)
OUT_DIR = os.path.join(HERE, "out")

#: seconds one driver run measures; every segment length derives from it
RUN_SECONDS = 30
#: the shortest run accepted: each of the five 1000/s windows then holds
#: about 50 arrivals and each rung about 40
MIN_SECONDS = 0.5

#: ``DEFAULT_SEED`` is what the full set runs with; ``HELD_BACK_SEED`` is not
#: used while a change is written and confirms a claim afterwards
DEFAULT_SEED = 11
HELD_BACK_SEED = 1996

#: fresh set-ups per run; ``setup_s`` is their median
SETUP_PROBES = 5

COMMAND = ["python3", "benchmarks/ladder/run.py"]
PATHS = ["benchmarks/ladder"]

#: name -> (why it exists, why the default seed suits it)
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "des_eager_hot": (
        "eager-group on 100 hot objects: lock manager, deadlock detector, "
        "WAL, txn.manager and the kernel do the work; placement and "
        "certification idle",
        "seed 11 gives 4-5 % deadlock victims, mid-range of the seeds "
        "tried, so both the wait path and the victim path are exercised",
    ),
    "des_certify_sharded": (
        "deferred-update over 32 nodes, hash:k=3, half read-only: "
        "certifier, placement, network and lazy stores busy; no lock ever "
        "blocks; readers must skip certification",
        "seed 11 touches ~32 k of 150 k nominal records, so lazy "
        "materialisation stays visible in peak_rss_mb",
    ),
    "svc_uniform": (
        "repro serve with commuting increments on 2000 uniform keys, "
        "nothing to reject: codec, asyncio, wall-clock engine, overlay and "
        "notice round trip dominate",
        "any seed gives ~0 contention; 11 is simply the shared default",
    ),
    "svc_checkbook_hot": (
        "same server on 50 hot accounts with non-negative acceptance, "
        "~26 % rejected: hot keys and the rejection + diagnostic path",
        "seed 11 settles at 25-27 % rejected within the warm-up, like "
        "every seed tried: the zero floor makes it a steady state",
    ),
}

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "cell_wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "lat_p50_ms": ("ms", "lower", 0.25),
    "sat_txn_per_s": ("1/s", "higher", 0.25),
    "server_cpu_us_per_txn": ("us", "lower", 0.25),
}

#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # demoted from the end-to-end list: its spread over ten seeds was
    # 0.19-0.33 on the served workloads, above the 0.25 a bound may be
    "lat_p99_ms": ("ms", "lower"),
    "harness.build_s": ("s", "lower"),
    "harness.drive_s": ("s", "lower"),
    "harness.divergence_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "faults.oracle_s": ("s", "lower"),
    "sim.events_per_txn": ("1/txn", "lower"),
    "sim.events_per_cpu_s": ("1/s", "higher"),
    "sim.loop_self_us_per_event": ("us", "lower"),
    "txn.manager.self_us_per_txn": ("us", "lower"),
    "storage.lock_manager.acquires_per_txn": ("1/txn", "lower"),
    "storage.lock_manager.self_us_per_txn": ("us", "lower"),
    "storage.lock_manager.block_share": ("share", "lower"),
    "storage.deadlock.self_us_per_txn": ("us", "lower"),
    "storage.deadlock.victims_per_ktxn": ("1/ktxn", "lower"),
    "storage.wal.records_per_txn": ("1/txn", "lower"),
    "storage.wal.self_us_per_txn": ("us", "lower"),
    "storage.store.ops_per_txn": ("1/txn", "lower"),
    "storage.store.self_us_per_txn": ("us", "lower"),
    "storage.store.materialized_total": ("count", "lower"),
    "network.sends_per_txn": ("1/txn", "lower"),
    "network.self_us_per_txn": ("us", "lower"),
    "placement.lookups_per_txn": ("1/txn", "lower"),
    "placement.self_us_per_txn": ("us", "lower"),
    "replication.user_txn_us_per_txn": ("us", "lower"),
    "replication.handler_us_per_txn": ("us", "lower"),
    "replication.commit_share": ("share", "higher"),
    "replication.cert_aborts_per_ktxn": ("1/ktxn", "lower"),
    "workload.us_per_txn": ("us", "lower"),
    "runtime.gc_s_share": ("share", "lower"),
    "service.protocol.decode_us_per_txn": ("us", "lower"),
    "service.protocol.encode_us_per_txn": ("us", "lower"),
    "service.wallclock.dispatches_per_txn": ("1/txn", "lower"),
    "service.wallclock.callback_us_per_txn": ("us", "lower"),
    "service.gateway.serve_txn_steps_per_txn": ("1/txn", "lower"),
    "service.gateway.engine_ms_p50": ("ms", "lower"),
    "service.gateway.transport_ms_p50": ("ms", "lower"),
    "service.gateway.noticed_share": ("share", "higher"),
    "service.gateway.asyncio_us_per_txn": ("us", "lower"),
    "core.tentative.overlays_per_txn": ("1/txn", "lower"),
    "core.tentative.self_us_per_txn": ("us", "lower"),
    "core.acceptance.rejected_share": ("share", "lower"),
    "service.histogram.record_us_per_txn": ("us", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.cpu_share": ("share", "lower"),
    "loadgen.rung_r500_p99_ms": ("ms", "lower"),
    "loadgen.rung_r2000_p99_ms": ("ms", "lower"),
    "loadgen.max_rung_ok": ("1/s", "higher"),
}


def benchmark_json() -> Dict[str, Any]:
    """The document the driver reads, with exactly the keys it allows."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (why, _) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def write_benchmark_json(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(benchmark_json(), handle, indent=2)
        handle.write("\n")


def labelled(values: Dict[str, float], trace: bool) -> Dict[str, Dict[str, Any]]:
    """Attach declared units; every declared metric must be present."""
    declared: Dict[str, Tuple] = PER_LAYER if trace else END_TO_END
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise KeyError(f"metrics missing {missing} / undeclared {extra}")
    return {
        name: {"value": values[name], "unit": declared[name][0]}
        for name in declared
    }


def workload_names() -> List[str]:
    return list(WORKLOADS)
