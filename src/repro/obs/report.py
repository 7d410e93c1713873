"""Reports: one run's document, or one service load test, as markdown.

:func:`run_report_markdown` renders the document
:func:`~repro.harness.export.result_to_dict` makes of one run — the
configuration provenance, the measured rates and non-zero counters, the
oracle's verdict, the fault timeline, and a sparkline summary
(min/mean/max/last per window) of every telemetry series.  The document is
its only input, so a live run, a campaign payload and a saved
``simulate --json`` file render the same bytes.  This is the artefact a
chaos run leaves behind — the "what happened and when" that flat counters
cannot answer.

:func:`service_report_markdown` renders a ``repro loadtest`` result, and
:func:`saved_report_markdown` tells the two saved shapes apart.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.metrics.report import format_table
from repro.obs.samplers import sparkline


#: the keys of one run's document (:func:`~repro.harness.export.result_to_dict`)
_RUN_KEYS = frozenset({"config", "rates", "counters", "divergence", "end_time"})


def saved_report_markdown(payload: Any) -> str:
    """Render a saved result, told apart by shape.

    A ``repro loadtest --out`` result (``kind == "service-loadtest"``) goes
    to :func:`service_report_markdown`, a run's document (``repro simulate
    --json``) to :func:`run_report_markdown`; anything else raises
    :class:`ValueError`.
    """
    if isinstance(payload, dict):
        if payload.get("kind") == "service-loadtest":
            return service_report_markdown(payload)
        if _RUN_KEYS <= payload.keys():
            return run_report_markdown(payload)
    raise ValueError(
        "not a run or service loadtest result: expected the JSON "
        "'repro simulate --json' or 'repro loadtest --out' writes"
    )


def _block(lines: List[str], heading: str, body: str) -> None:
    lines.extend([heading, "", "```", body, "```", ""])


def run_report_markdown(document: Dict[str, Any]) -> str:
    """Render one run's :func:`~repro.harness.export.result_to_dict`
    document as markdown."""
    config = dict(document["config"])
    params = config.pop("params")
    extra = document.get("extra") or {}
    lines: List[str] = [
        f"# {config['strategy']} run — nodes={params['nodes']}, "
        f"seed={config['seed']}",
        "",
    ]

    run = dict(params)
    run.update((k, v) for k, v in config.items() if v is not None)
    # nested values (fault plan, placement) print as sorted-key JSON: a
    # saved document's key order is not the live one's
    facts = [
        f"{key} = {json.dumps(run[key], sort_keys=True)}"
        if isinstance(run[key], (dict, list)) else f"{key} = {run[key]}"
        for key in sorted(run)
    ]
    facts.append(f"end_time = {document['end_time']:.6g}")
    facts.append(f"divergence = {document['divergence']}")
    resident = extra.get("resident_objects")
    if resident:
        facts.append(
            f"resident objects/node: max {resident['max']} "
            f"mean {resident['mean']:.1f} of db_size {resident['db_size']} "
            f"(replication factor {resident['replication_factor']})"
        )
        if "materialized_total" in resident:
            facts.append(
                f"materialized records: {resident['materialized_total']} "
                f"of {resident['total']} nominal "
                f"(max/node {resident['materialized_max']})"
            )
    _block(lines, "## Run", "\n".join(facts))

    oracle_ok = extra.get("oracle_ok")
    verdict = "n/a" if oracle_ok is None else "ok" if oracle_ok else "FAIL"
    lines.append(f"## Oracle: {verdict}")
    for failure in extra.get("oracle_failures") or ():
        lines.append(f"- {failure}")
    lines.append("")

    _block(lines, "## Rates", format_table(
        ["rate", "per second"],
        sorted((k, v) for k, v in document["rates"].items()
               if k != "horizon"),
    ))
    _block(lines, "## Counters", format_table(
        ["counter", "count"],
        sorted((k, v) for k, v in document["counters"].items() if v),
    ))

    dropped = extra.get("trace_dropped")
    if dropped:
        lines.append(
            f"**Warning:** the tracer ring buffer dropped {dropped} events; "
            "re-run with `--trace-out PATH` for a complete trace."
        )
        lines.append("")

    if extra.get("fault_stats"):
        _block(lines, "## Injected faults", format_table(
            ["fault", "count"], sorted(extra["fault_stats"].items()),
        ))

    telemetry = extra.get("series") or {}
    marks = telemetry.get("marks")
    if marks:
        lines.append("## Fault timeline")
        lines.append("")
        for mark in sorted(marks, key=lambda m: m["time"]):
            fields = " ".join(f"{k}={v}"
                              for k, v in sorted(mark["detail"].items()))
            suffix = f" ({fields})" if fields else ""
            lines.append(f"- `t={mark['time']:.3f}` {mark['label']}{suffix}")
        lines.append("")

    series = telemetry.get("series")
    if series:
        rows, shapes = [], []
        for name in sorted(series):
            s = series[name]["summary"]
            rows.append([name, s["count"], s["min"], f"{s['mean']:.4g}",
                         s["max"], s["last"]])
            shapes.append(f"{name:>24} |{sparkline(series[name]['values'])}|")
        table = format_table(
            ["series", "windows", "min", "mean", "max", "last"], rows
        )
        _block(lines, f"## Time series ({telemetry['interval']:g}s windows)",
               "\n".join([table, ""] + shapes))

    return "\n".join(lines)


def service_report_markdown(payload: Dict[str, Any]) -> str:
    """Render a ``repro loadtest`` result JSON as a markdown section.

    Accepts the dict a load-test run writes with ``--out`` — offered vs
    committed throughput, the latency percentiles, the rejection rate, and
    the drained-state oracle verdict — and nothing else: any other JSON
    raises :class:`ValueError`.
    """
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind != "service-loadtest":
        raise ValueError(
            "not a service loadtest result: expected kind="
            f"'service-loadtest', got {kind!r}"
        )
    config = payload.get("config") or {}
    latency = payload.get("latency_ms") or {}
    oracle = payload.get("oracle")

    lines: List[str] = ["# Service loadtest report", ""]
    lines.append("## Run")
    lines.append("")
    lines.append("```")
    for key in sorted(config):
        lines.append(f"{key} = {config[key]}")
    elapsed = payload.get("elapsed_seconds")
    if elapsed is not None:
        lines.append(f"elapsed_seconds = {elapsed:.3f}")
    lines.append("```")
    lines.append("")

    lines.append("## Throughput")
    lines.append("")
    lines.append("```")
    rows = [
        ["sent", payload.get("sent", 0)],
        ["completed", payload.get("completed", 0)],
        ["accepted", payload.get("accepted", 0)],
        ["rejected", payload.get("rejected", 0)],
        ["errors", payload.get("errors", 0)],
        ["lost replies", payload.get("lost", 0)],
        ["committed/sec",
         f"{payload.get('throughput_committed_per_sec', 0.0):.1f}"],
        ["completed/sec",
         f"{payload.get('completed_per_sec', 0.0):.1f}"],
        ["rejection rate",
         f"{payload.get('rejection_rate', 0.0):.4f}"],
    ]
    server = payload.get("server") or {}
    io = server.get("io") or {}
    if io.get("reads") and io.get("writes"):  # the server's transport
        served = server.get("served", 0)
        rows.append(["frames per read", f"{served / io['reads']:.2f}"])
        rows.append(["replies per write", f"{served / io['writes']:.2f}"])
    lines.append(format_table(["quantity", "value"], rows))
    lines.append("```")
    lines.append("")

    if latency:
        lines.append("## Latency (ms)")
        lines.append("")
        lines.append("```")
        order = ("p50", "p90", "p95", "p99", "mean", "max", "count")
        rows = [
            [key, latency[key] if key == "count"
             else f"{latency[key]:.3f}"]
            for key in order if latency.get(key) is not None
        ]
        lines.append(format_table(["quantile", "value"], rows))
        lines.append("```")
        lines.append("")

    if oracle is not None:
        verdict = "ok" if oracle.get("ok") else "FAIL"
        lines.append(f"## Oracle: {verdict}")
        lines.append("")
        lines.append("```")
        rows = sorted(
            (k, v) for k, v in oracle.items() if k != "ok"
        )
        lines.append(format_table(["check", "value"], rows))
        lines.append("```")
        lines.append("")
    else:
        lines.append("## Oracle: n/a (run finished without --drain)")
        lines.append("")

    return "\n".join(lines)
