"""Machine-readable result export.

Downstream users replot reproduction results with their own tools; these
helpers serialise experiment results, sweeps, and multi-seed statistics to
plain JSON-compatible dictionaries (and to files), keeping the provenance —
configuration, seeds, horizon — attached to every number.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.core.acceptance import AcceptanceCriterion
from repro.harness.experiment import ExperimentConfig, ExperimentResult
from repro.harness.stats import SeedStats
from repro.replication.reconciliation import ReconciliationRule

#: ``ExperimentConfig`` fields that watch a run without changing it: they
#: join neither the provenance dictionary nor the campaign cache key.
#: Every other field does, by construction — the dictionary is a walk of
#: the dataclass, not a hand-kept list.
INSTRUMENTATION = ("tracer", "telemetry", "profiler")


def _keyed(value: Any, opaque: List[Any]) -> Any:
    """The JSON-able form of one config value.

    A criterion or rule is its name plus its constructor state —
    ``price-not-above(tolerance=5.0)`` — so two instances of one class
    with different arguments never share a key.  A callable held in that
    state has no canonical form; it is collected in ``opaque``.
    """
    if hasattr(value, "to_dict"):  # FaultPlan, Placement
        return value.to_dict()
    if dataclasses.is_dataclass(value):  # ModelParameters
        return dataclasses.asdict(value)
    if isinstance(value, (AcceptanceCriterion, ReconciliationRule)):
        state = ", ".join(
            f"{field}={_keyed(held, opaque)!r}"
            for field, held in sorted(vars(value).items())
            if field != "name"
        )
        return f"{value.name}({state})" if state else value.name
    if isinstance(value, (list, tuple)):
        return [_keyed(item, opaque) for item in value]
    if callable(value):
        opaque.append(value)
        return getattr(value, "__qualname__", type(value).__name__)
    return value


def describe_config(config: ExperimentConfig) -> Tuple[Dict[str, Any], List[Any]]:
    """``config`` as a plain dictionary, plus the callables found in its
    criterion's or rule's state — a config holding one has no content
    hash, so the campaign cache neither reads nor writes it."""
    opaque: List[Any] = []
    described = {
        field.name: _keyed(getattr(config, field.name), opaque)
        for field in dataclasses.fields(config)
        if field.name not in INSTRUMENTATION
    }
    return described, opaque


def config_to_dict(config: ExperimentConfig) -> Dict[str, Any]:
    return describe_config(config)[0]


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """One experiment result with full provenance."""
    return {
        "config": config_to_dict(result.config),
        "rates": result.rates.as_dict(),
        "counters": result.metrics.as_dict(),
        "divergence": result.divergence,
        "end_time": result.end_time,
        "extra": {k: v for k, v in result.extra.items() if v is not None},
    }


def stats_to_dict(stats: SeedStats) -> Dict[str, Any]:
    """Multi-seed statistics with per-rate CI."""
    return {
        "config": config_to_dict(stats.config),
        "seeds": list(stats.seeds),
        "rates": {
            name: {
                "mean": est.mean,
                "std": est.std,
                "ci95_half_width": est.ci95_half_width,
                "samples": list(est.samples),
            }
            for name, est in stats.rates.items()
        },
    }


def campaign_to_dict(outcome) -> Dict[str, Any]:
    """A whole :class:`~repro.harness.campaign.CampaignResult`.

    Every run's provenance (config + status + cache origin) plus the
    per-cell aggregates and fit exponents, one JSON document.
    """
    cells = outcome.aggregate()
    campaign = getattr(outcome, "campaign", None)
    return {
        "summary": {
            "runs": outcome.total,
            "ok": outcome.ok_count,
            "failed": outcome.total - outcome.ok_count,
            "cache_hits": outcome.cache_hits,
            "elapsed_seconds": outcome.elapsed,
            "jobs": outcome.jobs,
            "model": getattr(campaign, "model", "closed-form"),
        },
        "runs": [
            {
                "config": config_to_dict(o.spec.config),
                "status": o.status,
                "cached": o.cached,
                "error": o.error or None,
                "rates": o.rates() or None,
                "extra": (o.payload or {}).get("extra") or None,
            }
            for o in outcome.outcomes
        ],
        "cells": [
            {
                "strategy": cell.strategy,
                "axis": cell.axis,
                "value": cell.value,
                "n": cell.n,
                "failures": cell.failures,
                "oracle_ok": cell.oracle_ok,
                "analytic": cell.analytic,
                "reference_rate": cell.reference_rate,
                "rates": {
                    name: {
                        "mean": est.mean,
                        "std": est.std,
                        "ci95_half_width": est.ci95_half_width,
                        "samples": list(est.samples),
                    }
                    for name, est in cell.rates.items()
                },
            }
            for cell in cells
        ],
        "fits": [
            {
                "strategy": fit.strategy,
                "rate": fit.rate,
                "measured_exponent": fit.measured,
                "analytic_exponent": fit.analytic,
            }
            for fit in outcome.fits()
        ],
    }


def write_campaign_series(outcome, directory: Union[str, Path]) -> List[Path]:
    """Persist each cell's telemetry time-series to its own JSON file.

    One file per (strategy, axis value) cell, named
    ``<strategy>_<axis><value>.json``, each holding every successful seed
    replica's serialised series (the run's ``extra["series"]`` payload) plus
    provenance.  Runs sampled with ``sample_interval=0`` carry no series and
    are skipped; the return lists the files actually written.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    by_cell: Dict[Any, List[Any]] = {}
    order: List[Any] = []
    for o in outcome.outcomes:
        series = (o.payload or {}).get("extra", {}).get("series")
        if not o.ok or series is None:
            continue
        cell = o.spec.cell()
        if cell not in by_cell:
            by_cell[cell] = []
            order.append(cell)
        by_cell[cell].append(o)
    written: List[Path] = []
    for cell in order:
        members = by_cell[cell]
        strategy, value = cell
        axis = members[0].spec.axis
        doc = {
            "strategy": strategy,
            "axis": axis,
            "value": value,
            "runs": [
                {
                    "seed": o.spec.config.seed,
                    "series": o.payload["extra"]["series"],
                }
                for o in members
            ],
        }
        value_text = f"{value:g}".replace(".", "p")
        target = root / f"{strategy}_{axis}{value_text}.json"
        with target.open("w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(target)
    return written


def write_campaign_csv(outcome, path: Union[str, Path]) -> Path:
    """Flatten a campaign's cell aggregates to CSV (one row per rate)."""
    import csv

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "strategy", "axis", "value", "rate", "n", "mean", "std",
            "ci95_half_width", "analytic",
        ])
        for cell in outcome.aggregate():
            for name, est in sorted(cell.rates.items()):
                writer.writerow([
                    cell.strategy, cell.axis, cell.value, name, cell.n,
                    est.mean, est.std, est.ci95_half_width,
                    cell.analytic if name == cell.reference_rate else "",
                ])
    return target


Exportable = Union[ExperimentResult, SeedStats, Dict[str, Any]]


def to_dict(obj: Exportable) -> Dict[str, Any]:
    """Dispatch helper for the supported result types."""
    from repro.harness.campaign import CampaignResult

    if isinstance(obj, ExperimentResult):
        return result_to_dict(obj)
    if isinstance(obj, SeedStats):
        return stats_to_dict(obj)
    if isinstance(obj, CampaignResult):
        return campaign_to_dict(obj)
    if isinstance(obj, dict):
        return obj
    raise TypeError(f"cannot export {type(obj).__name__}")


def write_json(obj: Exportable, path: Union[str, Path]) -> Path:
    """Serialise ``obj`` to ``path`` (pretty-printed, stable key order)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as fh:
        json.dump(to_dict(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target

