"""Directory placement at scale: 10k nodes, 1M objects, lazy stores.

The tentpole claim this bench proves: a :class:`DirectoryPlacement` binds a
10,000-node / 1,000,000-object system in well under a second, and the lazy
stores materialise **only the records transactions actually touch** — the
whole sweep (build, 600 three-object transactions, live migrations, a
divergence audit) fits in a small, stated memory budget where eager
materialisation of the 3M nominal replicas would not.  The audit visits
only the materialised objects, so it costs less than the sweep it checks.

The ride-along ablation quantifies *why* the default grouping is
``locality``: a transaction over ``w`` consecutive object ids touches one
shard's replica set (~k distinct nodes) under locality grouping, but
scatters across up to ``w*k`` nodes under hash grouping — fewer nodes per
transaction means fewer propagation targets and fewer chances to conflict.

Results land in ``BENCH_placement.json`` (the ``placement-scale-smoke`` CI
artifact).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_placement_scale.py -q
"""

import json
import random
import resource
import time
from pathlib import Path

import pytest

from repro.obs.samplers import Telemetry
from repro.placement import Placement
from repro.replication import LazyGroupSystem, SystemSpec
from repro.txn.ops import WriteOp

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_placement.json"

NODES = 10_000
DB_SIZE = 1_000_000
K = 3
TXNS = 600
TXN_WIDTH = 3  # consecutive oids per transaction (locality-friendly)
MIGRATIONS = 10
SEED = 42

#: peak-RSS ceiling for the whole process (build + sweep + audit).  The
#: measured footprint is ~50 MB; the 3M nominal replicas alone would cost
#: an order of magnitude more if stores materialised eagerly, so this
#: budget fails the job if laziness ever regresses.
RSS_BUDGET_MB = 512

#: hotspot windows scored in the locality-vs-hash ablation
ABLATION_WINDOWS = 200
HOT_PREFIX = 50_000  # Zipf-style hot region: the low object ids


def _span_stats(bound, rng):
    """Mean distinct nodes touched by hotspot transactions under ``bound``."""
    spans = []
    for _ in range(ABLATION_WINDOWS):
        base = rng.randrange(0, HOT_PREFIX - TXN_WIDTH)
        nodes = set()
        for oid in range(base, base + TXN_WIDTH):
            nodes.update(bound.replicas(oid))
        spans.append(len(nodes))
    return sum(spans) / len(spans), max(spans)


@pytest.fixture(scope="module")
def payload():
    """One full measurement, shared by the assertions, persisted for CI."""
    telemetry = Telemetry(interval=1.0)
    build_started = time.perf_counter()
    system = LazyGroupSystem(SystemSpec(
        num_nodes=NODES,
        db_size=DB_SIZE,
        action_time=0.001,
        message_delay=0.001,
        seed=7,
        placement=Placement.from_spec(f"dir:k={K}"),
        telemetry=telemetry,
    ))
    build_elapsed = time.perf_counter() - build_started

    rng = random.Random(SEED)
    touched = set()
    sweep_started = time.perf_counter()
    for _ in range(TXNS):
        base = rng.randrange(0, DB_SIZE - TXN_WIDTH)
        oids = range(base, base + TXN_WIDTH)
        touched.update(oids)
        system.submit(
            system.placement.master(base),
            [WriteOp(oid, rng.randrange(1_000_000)) for oid in oids],
        )
    system.run()

    # live migrations of touched objects: the record transfer rides the
    # normal network path and the directory rewrite is O(1)
    moved = []
    for oid in sorted(touched)[:MIGRATIONS]:
        replicas = system.placement.replicas(oid)
        src = replicas[-1]
        dst = next(
            node for node in range(NODES)
            if node not in system.placement.replicas(oid)
        )
        system.migrate(oid, src, dst)
        moved.append((oid, src, dst))
    system.run()
    sweep_elapsed = time.perf_counter() - sweep_started

    telemetry.sample(system.engine.now)

    audit_started = time.perf_counter()
    divergence = system.divergence()
    audit_elapsed = time.perf_counter() - audit_started

    materialized_total = sum(system.materialized_counts())
    nominal_total = sum(system.nominal_resident_counts())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ablation_rng = random.Random(SEED + 1)
    locality_mean, locality_max = _span_stats(
        Placement.from_spec(f"dir:k={K}").bind(NODES, DB_SIZE), ablation_rng
    )
    hash_mean, hash_max = _span_stats(
        Placement.from_spec(f"dir:k={K},group=hash").bind(NODES, DB_SIZE),
        ablation_rng,
    )

    data = {
        "schema": 1,
        "scale": {
            "nodes": NODES,
            "db_size": DB_SIZE,
            "replication_factor": K,
            "transactions": TXNS,
            "txn_width": TXN_WIDTH,
            "migrations": len(moved),
        },
        "results": {
            "commits": system.metrics.commits,
            "divergence": divergence,
            "touched_objects": len(touched),
            "materialized_total": materialized_total,
            "nominal_total": nominal_total,
            "resident_objects_gauge": telemetry.series[
                "resident_objects"
            ].values[-1],
        },
        "memory": {
            "peak_rss_mb": round(peak_rss_mb, 1),
            "budget_mb": RSS_BUDGET_MB,
        },
        "timing_seconds": {
            "build": round(build_elapsed, 3),
            "sweep": round(sweep_elapsed, 3),
            "divergence_audit": round(audit_elapsed, 3),
        },
        "ablation": {
            "windows": ABLATION_WINDOWS,
            "hot_prefix": HOT_PREFIX,
            "locality_span_mean": locality_mean,
            "locality_span_max": locality_max,
            "hash_span_mean": hash_mean,
            "hash_span_max": hash_max,
        },
    }
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data, system


def test_every_transaction_commits_and_replicas_converge(payload):
    data, system = payload
    assert data["results"]["commits"] == TXNS
    assert data["results"]["divergence"] == 0
    assert system.metrics.as_dict()["migrations"] == MIGRATIONS
    assert system.placement.moved == MIGRATIONS


def test_lazy_stores_materialise_only_touched_records(payload):
    data, _ = payload
    results = data["results"]
    # every materialised record is one of the k replicas of a touched
    # object (migrations move copies, they never add them)
    assert results["materialized_total"] <= K * results["touched_objects"]
    # and the footprint is a rounding error against the nominal 3M copies
    assert results["materialized_total"] < results["nominal_total"] / 100
    # the resident_objects telemetry gauge reports the same count
    assert results["resident_objects_gauge"] == results["materialized_total"]


def test_peak_rss_stays_inside_the_stated_budget(payload):
    data, _ = payload
    assert data["memory"]["peak_rss_mb"] < RSS_BUDGET_MB, (
        f"peak RSS {data['memory']['peak_rss_mb']:.0f} MB exceeds the "
        f"{RSS_BUDGET_MB} MB budget — lazy stores may have regressed"
    )


def test_audit_costs_less_than_the_sweep_it_checks(payload):
    data, _ = payload
    timing = data["timing_seconds"]
    # machine-independent: 1 800 touched objects of 1M — a full-keyspace
    # audit took ~19x the sweep
    assert timing["divergence_audit"] < timing["sweep"]


def test_directory_binds_large_systems_fast(payload):
    data, _ = payload
    # O(S*k) map construction: binding 10k x 1M must not enumerate the
    # object space
    assert data["timing_seconds"]["build"] < 5.0


def test_locality_grouping_narrows_hotspot_transactions(payload):
    data, _ = payload
    ablation = data["ablation"]
    # locality: a w-wide window usually sits inside one shard -> ~k nodes
    assert ablation["locality_span_mean"] < K + 1
    # hash scatters the same window across ~w distinct replica sets
    assert ablation["hash_span_mean"] > ablation["locality_span_mean"] * 1.5
    assert ablation["hash_span_max"] <= TXN_WIDTH * K


def test_payload_written_with_ci_schema(payload):
    data, _ = payload
    stored = json.loads(BENCH_PATH.read_text())
    assert stored == data
    for key in ("schema", "scale", "results", "memory", "ablation"):
        assert key in stored, f"CI artifact schema missing {key!r}"
