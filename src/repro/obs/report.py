"""Per-run reports: counters, oracle verdict, fault timeline, series.

One :class:`RunReport` stitches everything a run produced into a single
markdown (or JSON) document: the configuration provenance, the measured
rates and non-zero counters, the invariant-oracle verdict, the fault/mark
timeline, and a sparkline summary (min/mean/max/last per window) of every
telemetry series.  This is the artefact a chaos run leaves behind — the
"what happened and when" that flat counters cannot answer.

The builder duck-types its input so it works both on a live
:class:`~repro.harness.experiment.ExperimentResult` (with an attached
:class:`~repro.obs.samplers.Telemetry`) and on a deserialised campaign
payload whose series travelled inside ``extra["series"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.metrics.report import format_table
from repro.obs.samplers import Telemetry, TimeSeries


@dataclass
class RunReport:
    """Everything the report renders, already shaped for output."""

    title: str
    config: Dict[str, Any]
    rates: Dict[str, float]
    counters: Dict[str, float]
    divergence: int
    end_time: float
    oracle_ok: Optional[bool]
    oracle_failures: List[str] = field(default_factory=list)
    fault_stats: Dict[str, Any] = field(default_factory=dict)
    timeline: List[Tuple[float, str, Dict[str, Any]]] = field(
        default_factory=list
    )
    series: List[TimeSeries] = field(default_factory=list)
    sample_interval: Optional[float] = None
    trace_dropped: int = 0

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def to_markdown(self) -> str:
        lines: List[str] = [f"# {self.title}", ""]

        lines.append("## Run")
        lines.append("")
        lines.append("```")
        for key in sorted(self.config):
            lines.append(f"{key} = {self.config[key]}")
        lines.append(f"end_time = {self.end_time:.6g}")
        lines.append(f"divergence = {self.divergence}")
        lines.append("```")
        lines.append("")

        verdict = ("n/a" if self.oracle_ok is None
                   else "ok" if self.oracle_ok else "FAIL")
        lines.append(f"## Oracle: {verdict}")
        for failure in self.oracle_failures:
            lines.append(f"- {failure}")
        lines.append("")

        lines.append("## Rates")
        lines.append("")
        lines.append("```")
        lines.append(format_table(
            ["rate", "per second"],
            sorted(self.rates.items()),
        ))
        lines.append("```")
        lines.append("")

        lines.append("## Counters")
        lines.append("")
        lines.append("```")
        lines.append(format_table(
            ["counter", "count"],
            sorted((k, v) for k, v in self.counters.items() if v),
        ))
        lines.append("```")
        lines.append("")

        if self.trace_dropped:
            lines.append(
                f"**Warning:** the tracer ring buffer dropped "
                f"{self.trace_dropped} events; raise `Tracer(limit=...)` "
                "for a complete trace."
            )
            lines.append("")

        if self.fault_stats:
            lines.append("## Injected faults")
            lines.append("")
            lines.append("```")
            lines.append(format_table(
                ["fault", "count"],
                sorted(self.fault_stats.items()),
            ))
            lines.append("```")
            lines.append("")

        if self.timeline:
            lines.append("## Fault timeline")
            lines.append("")
            for time, label, detail in sorted(self.timeline,
                                              key=lambda m: m[0]):
                suffix = ""
                if detail:
                    fields = " ".join(
                        f"{k}={v}" for k, v in sorted(detail.items())
                    )
                    suffix = f" ({fields})"
                lines.append(f"- `t={time:.3f}` {label}{suffix}")
            lines.append("")

        if self.series:
            window = (f"{self.sample_interval:g}s"
                      if self.sample_interval else "?")
            lines.append(f"## Time series ({window} windows)")
            lines.append("")
            lines.append("```")
            rows = []
            for series in self.series:
                s = series.summary()
                rows.append([
                    series.name, s.count, s.minimum, f"{s.mean:.4g}",
                    s.maximum, s.last,
                ])
            lines.append(format_table(
                ["series", "windows", "min", "mean", "max", "last"],
                rows,
            ))
            lines.append("")
            for series in self.series:
                lines.append(f"{series.name:>24} |{series.sparkline()}|")
            lines.append("```")
            lines.append("")

        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "config": dict(self.config),
            "rates": dict(self.rates),
            "counters": dict(self.counters),
            "divergence": self.divergence,
            "end_time": self.end_time,
            "oracle_ok": self.oracle_ok,
            "oracle_failures": list(self.oracle_failures),
            "fault_stats": dict(self.fault_stats),
            "trace_dropped": self.trace_dropped,
            "timeline": [
                {"time": t, "label": label, "detail": dict(detail)}
                for t, label, detail in self.timeline
            ],
            "sample_interval": self.sample_interval,
            "series": {s.name: s.to_dict() for s in self.series},
        }


def _series_from_extra(extra: Dict[str, Any]) -> Tuple[
        List[TimeSeries], List[Tuple[float, str, Dict[str, Any]]],
        Optional[float]]:
    """Rebuild series + marks from a serialised ``extra['series']`` blob."""
    blob = extra.get("series")
    if not isinstance(blob, dict):
        return [], [], None
    series = [
        TimeSeries.from_dict(data)
        for _name, data in sorted(blob.get("series", {}).items())
    ]
    marks = [
        (m["time"], m["label"], m.get("detail", {}))
        for m in blob.get("marks", ())
    ]
    return series, marks, blob.get("interval")


def build_report(
    result,
    telemetry: Optional[Telemetry] = None,
    title: Optional[str] = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from one experiment result.

    Args:
        result: an :class:`~repro.harness.experiment.ExperimentResult`
            (or anything shaped like one).
        telemetry: the run's live telemetry handle; when ``None`` the
            series are recovered from ``result.extra["series"]`` if the
            run sampled (campaign payloads round-trip this way).
        title: report heading (defaults to strategy + parameters).
    """
    from repro.harness.export import config_to_dict

    config = config_to_dict(result.config)
    params = config.pop("params", {})
    flat_config = dict(params)
    flat_config.update(
        (k, v) for k, v in config.items() if v is not None
    )

    if telemetry is not None:
        series = [telemetry.series[name]
                  for name in sorted(telemetry.series)]
        timeline = list(telemetry.marks)
        interval: Optional[float] = telemetry.interval
    else:
        series, timeline, interval = _series_from_extra(result.extra)

    extra = result.extra
    return RunReport(
        title=title or (
            f"{result.config.strategy} run — nodes="
            f"{result.config.params.nodes}, seed={result.config.seed}"
        ),
        config=flat_config,
        rates={k: v for k, v in result.rates.as_dict().items()
               if k != "horizon"},
        counters=result.metrics.as_dict(),
        divergence=result.divergence,
        end_time=result.end_time,
        oracle_ok=extra.get("oracle_ok"),
        oracle_failures=list(extra.get("oracle_failures") or ()),
        fault_stats=dict(extra.get("fault_stats") or {}),
        timeline=timeline,
        series=series,
        sample_interval=interval,
        trace_dropped=int(extra.get("trace_dropped") or 0),
    )


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


def write_report(report: RunReport, path: Union[str, Path]) -> Path:
    """Write the markdown form of ``report`` to ``path``."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(report.to_markdown(), encoding="utf-8")
    return target
