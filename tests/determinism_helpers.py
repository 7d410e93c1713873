"""Fixed-seed determinism fingerprints for the five strategies.

The kernel refactor contract is that seeded runs stay bit-for-bit identical
at the metrics level.  This module defines a canonical set of small
configurations (every strategy, with and without faults) and a
``fingerprint`` function that reduces one run to a comparable record:
the full metrics dict, the end-state divergence, the final clock, and a
SHA-256 over the formatted trace event sequence.

``tests/data/determinism_golden.json`` holds the committed fingerprints.
``tests/test_determinism_suite.py`` asserts (a) two runs of the same config
are byte-identical and (b) the current kernel still matches the goldens.

Regenerate the goldens after an *intentional* behaviour change with::

    PYTHONPATH=src python -m tests.determinism_helpers --write

and explain the regeneration in the commit message.

``tests/data/partial_golden.json`` holds the analogous fingerprints for a
partial placement (``hash:k=3``) run of every strategy; regenerate with
``--write-partial``.

``tests/data/options_golden.json`` pins the constructor options and spec
switches the default-constructor goldens never turn — quorum,
``parallel_updates``, ``lock_reads`` on mixed read/write traffic,
``master_broadcasts``, ``require_connected_masters=False`` and the master
cells under ``hash:k=3`` — one system built directly per
:data:`OPTION_CASES` entry; regenerate with ``--write-options``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional

from repro.analytic.parameters import ModelParameters
from repro.faults.plan import FaultPlan
from repro.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.harness.experiment import STRATEGIES, STRATEGY_CLASSES
from repro.network.message import reset_message_ids
from repro.placement import Placement
from repro.replication import SystemSpec
from repro.sim.tracing import Tracer
from repro.txn.ops import ReadOp, WriteOp
from repro.txn.transaction import reset_txn_ids
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import TransactionProfile, uniform_update_profile

GOLDEN_PATH = Path(__file__).parent / "data" / "determinism_golden.json"
PARTIAL_GOLDEN_PATH = Path(__file__).parent / "data" / "partial_golden.json"
OPTIONS_GOLDEN_PATH = Path(__file__).parent / "data" / "options_golden.json"
_PARTIAL_SPEC = "hash:k=3"
_PARTIAL_NODES = 5

#: small but contended enough that every counter family ticks; the nonzero
#: message delay keeps real traffic on the wire so the fault tap matters
_PARAMS = ModelParameters(
    db_size=60, nodes=3, tps=4.0, actions=3, action_time=0.005,
    message_delay=0.002,
)
_DURATION = 15.0
_SEED = 42
_FAULT_SPEC = "drop=0.05,partition=2,crash=2"
_FAULT_SEED = 1


def case_names():
    """Deterministic list of case labels: strategy × {clean, faulted}."""
    names = []
    for strategy in STRATEGIES:
        names.append(f"{strategy}/clean")
        names.append(f"{strategy}/faulted")
    return names


def _case_params(strategy: str) -> ModelParameters:
    if strategy == "two-tier":
        # mobile day-cycles engage the tentative/acceptance machinery
        return _PARAMS.with_(disconnect_time=3.0, time_between_disconnects=3.0)
    return _PARAMS


def _build_config(name: str, tracer: Optional[Tracer]) -> ExperimentConfig:
    strategy, variant = name.split("/")
    params = _case_params(strategy)
    faults = None
    if variant == "faulted":
        num_nodes = params.nodes + (1 if strategy == "two-tier" else 0)
        faults = FaultPlan.from_spec(
            _FAULT_SPEC,
            num_nodes=num_nodes,
            duration=_DURATION,
            fault_seed=_FAULT_SEED,
        )
    return ExperimentConfig(
        strategy=strategy,
        params=params,
        duration=_DURATION,
        seed=_SEED,
        faults=faults,
        tracer=tracer,
    )


def partial_case_names():
    """One ``hash:k=3`` case per strategy, all on genuinely sharded stores."""
    return [f"{strategy}/partial" for strategy in STRATEGIES]


def _build_partial_config(name: str, tracer: Optional[Tracer]) -> ExperimentConfig:
    strategy = name.split("/")[0]
    if strategy == "two-tier":
        # a 4-node base tier so k=3 shards it, plus two cycling mobiles
        params = _case_params(strategy).with_(nodes=2)
        num_base = 4
    else:
        params = _case_params(strategy).with_(nodes=_PARTIAL_NODES)
        num_base = 1
    return ExperimentConfig(
        strategy=strategy,
        params=params,
        duration=_DURATION,
        seed=_SEED,
        num_base=num_base,
        placement=Placement.from_spec(_PARTIAL_SPEC),
        tracer=tracer,
    )


def _run_counted(config: ExperimentConfig) -> ExperimentResult:
    """:func:`run_experiment`, checking that the network counted exactly
    the deliveries the nodes took (a refused delivery is not one)."""
    result = run_experiment(config)
    delivered = result.system.network.messages_delivered
    taken = result.system.metrics.messages
    assert delivered == taken, (
        f"network counted {delivered} deliveries, the nodes took {taken}"
    )
    return result


def fingerprint(name: str) -> Dict[str, Any]:
    """Run one canonical case and reduce it to a comparable record.

    Txn and message ids are process-global counters and appear in trace
    detail; resetting both makes each fingerprint independent of whatever
    ran earlier in the process (other cases, other tests).
    """
    reset_txn_ids()
    reset_message_ids()
    tracer = Tracer(limit=1_000_000)
    result = _run_counted(_build_config(name, tracer))
    trace_lines = "\n".join(e.format() for e in tracer.events())
    return {
        "metrics": {k: v for k, v in sorted(result.metrics.as_dict().items())},
        "divergence": result.divergence,
        "end_time": round(result.end_time, 9),
        "trace_events": len(tracer),
        "trace_sha256": hashlib.sha256(trace_lines.encode()).hexdigest(),
    }


def fingerprint_partial(name: str) -> Dict[str, Any]:
    """Like :func:`fingerprint` for the hash:k=3 cases; also pins the
    per-node shard sizes, which are part of the placement contract."""
    reset_txn_ids()
    reset_message_ids()
    tracer = Tracer(limit=1_000_000)
    result = _run_counted(_build_partial_config(name, tracer))
    trace_lines = "\n".join(e.format() for e in tracer.events())
    resident = result.extra["resident_objects"]
    return {
        "metrics": {k: v for k, v in sorted(result.metrics.as_dict().items())},
        "divergence": result.divergence,
        "end_time": round(result.end_time, 9),
        "trace_events": len(tracer),
        "trace_sha256": hashlib.sha256(trace_lines.encode()).hexdigest(),
        "resident_max": resident["max"],
        "resident_total": resident["total"],
    }


def read_write_factory(oid: int, rng: random.Random):
    """Half reads, half blind writes: the mixed traffic that makes
    ``lock_reads`` and remote reads matter."""
    if rng.random() < 0.5:
        return ReadOp(oid)
    return WriteOp(oid, rng.randrange(1_000_000))


class OptionCase(NamedTuple):
    """One system built directly: its strategy, constructor keywords and
    the spec switches the default-constructor goldens leave off."""

    strategy: str
    options: Dict[str, Any] = {}
    placement: Optional[str] = None
    mixed: bool = False
    lock_reads: bool = False
    faulted: bool = False


#: every option path a shared phase body serves, by case label
OPTION_CASES: Dict[str, OptionCase] = {
    "eager-group+quorum/faulted": OptionCase(
        "eager-group", {"quorum": True}, faulted=True),
    "eager-group+quorum/hash:k=3/faulted": OptionCase(
        "eager-group", {"quorum": True}, _PARTIAL_SPEC, faulted=True),
    "eager-group+parallel_updates": OptionCase(
        "eager-group", {"parallel_updates": True}),
    "eager-group+lock_reads/mixed": OptionCase(
        "eager-group", mixed=True, lock_reads=True),
    "eager-master+lock_reads/mixed": OptionCase(
        "eager-master", mixed=True, lock_reads=True),
    "lazy-group+lock_reads/mixed": OptionCase(
        "lazy-group", mixed=True, lock_reads=True),
    "lazy-master+lock_reads/mixed": OptionCase(
        "lazy-master", mixed=True, lock_reads=True),
    "eager-master/hash:k=3/mixed": OptionCase(
        "eager-master", placement=_PARTIAL_SPEC, mixed=True),
    "lazy-master+master_broadcasts/faulted": OptionCase(
        "lazy-master", {"master_broadcasts": True}, faulted=True),
    "lazy-master+require_connected_masters=False/faulted": OptionCase(
        "lazy-master", {"require_connected_masters": False}, faulted=True),
    "lazy-master/hash:k=3/mixed": OptionCase(
        "lazy-master", placement=_PARTIAL_SPEC, mixed=True),
}


def option_case_names():
    return list(OPTION_CASES)


def fingerprint_option(name: str) -> Dict[str, Any]:
    """Like :func:`fingerprint` for one :data:`OPTION_CASES` entry, built
    with its keywords and driven by a plain :class:`WorkloadGenerator`."""
    case = OPTION_CASES[name]
    reset_txn_ids()
    reset_message_ids()
    tracer = Tracer(limit=1_000_000)
    num_nodes = _PARTIAL_NODES if case.placement else _PARAMS.nodes
    faults = None
    if case.faulted:
        faults = FaultPlan.from_spec(
            _FAULT_SPEC, num_nodes=num_nodes, duration=_DURATION,
            fault_seed=_FAULT_SEED,
        )
    spec = SystemSpec(
        num_nodes=num_nodes,
        db_size=_PARAMS.db_size,
        action_time=_PARAMS.action_time,
        message_delay=_PARAMS.message_delay,
        seed=_SEED,
        lock_reads=case.lock_reads,
        tracer=tracer,
        placement=(
            Placement.from_spec(case.placement) if case.placement else None
        ),
        faults=faults,
    )
    system = STRATEGY_CLASSES[case.strategy](spec, **case.options)
    if case.mixed:
        profile = TransactionProfile(
            actions=_PARAMS.actions, db_size=_PARAMS.db_size,
            op_factory=read_write_factory,
        )
    else:
        profile = uniform_update_profile(_PARAMS.actions, _PARAMS.db_size)
    WorkloadGenerator(system, profile, tps=_PARAMS.tps).start(_DURATION)
    system.run()
    assert system.network.messages_delivered == system.metrics.messages
    trace_lines = "\n".join(e.format() for e in tracer.events())
    return {
        "metrics": {k: v for k, v in sorted(system.metrics.as_dict().items())},
        "divergence": system.divergence(),
        "end_time": round(system.engine.now, 9),
        "trace_events": len(tracer),
        "trace_sha256": hashlib.sha256(trace_lines.encode()).hexdigest(),
    }


def load_golden() -> Dict[str, Any]:
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def load_partial_golden() -> Dict[str, Any]:
    with PARTIAL_GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def load_options_golden() -> Dict[str, Any]:
    with OPTIONS_GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: Path, golden: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_golden() -> Dict[str, Any]:
    golden = {name: fingerprint(name) for name in case_names()}
    _write(GOLDEN_PATH, golden)
    return golden


def write_partial_golden() -> Dict[str, Any]:
    golden = {name: fingerprint_partial(name) for name in partial_case_names()}
    _write(PARTIAL_GOLDEN_PATH, golden)
    return golden


def write_options_golden() -> Dict[str, Any]:
    golden = {name: fingerprint_option(name) for name in option_case_names()}
    _write(OPTIONS_GOLDEN_PATH, golden)
    return golden


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        golden = write_golden()
        print(f"wrote {len(golden)} fingerprints to {GOLDEN_PATH}")
    elif "--write-partial" in sys.argv:
        golden = write_partial_golden()
        print(f"wrote {len(golden)} fingerprints to {PARTIAL_GOLDEN_PATH}")
    elif "--write-options" in sys.argv:
        golden = write_options_golden()
        print(f"wrote {len(golden)} fingerprints to {OPTIONS_GOLDEN_PATH}")
    else:
        raise SystemExit(
            "usage: python -m tests.determinism_helpers "
            "--write | --write-partial | --write-options\n"
            "(regenerates tests/data/determinism_golden.json, "
            "tests/data/partial_golden.json or tests/data/options_golden.json)"
        )
