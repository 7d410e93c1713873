"""Observability subsystem: time-series telemetry, traces, profiles, reports.

Four lenses onto one simulated run, layered on the existing tracer/metrics
hooks without touching the measurement semantics:

* :mod:`repro.obs.samplers` — a :class:`~repro.obs.samplers.Telemetry`
  handle drives windowed gauge / counter-rate samplers from an
  engine-scheduled tick (wait-queue depth, in-flight messages, per-window
  commit/abort/reconciliation rates, tentative backlog);
* :mod:`repro.obs.chrome_trace` — exports
  :class:`~repro.sim.tracing.Tracer` events as Chrome/Perfetto trace JSON
  with one track per node;
* :mod:`repro.obs.profiler` — wall-clock hot spots of the engine itself,
  bucketed by process name;
* :mod:`repro.obs.report` — renders a run's one document
  (:func:`~repro.harness.export.result_to_dict`) as markdown: counters,
  oracle verdict, fault timeline, and series summaries.

Entry points: ``ExperimentConfig(sample_interval=...)`` for sampling;
on the CLI, ``python -m repro simulate`` (``--sample-interval``,
``--trace-out``, ``--json``) runs and reports one experiment and
``python -m repro report PATH`` renders a saved result.
"""

from repro.obs.chrome_trace import (
    chrome_trace_events,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profiler import Profiler, bucket_name
from repro.obs.report import run_report_markdown
from repro.obs.samplers import (
    CounterDeltaSampler,
    GaugeSampler,
    SeriesSummary,
    Telemetry,
    TimeSeries,
)

__all__ = [
    "CounterDeltaSampler",
    "GaugeSampler",
    "Profiler",
    "SeriesSummary",
    "Telemetry",
    "TimeSeries",
    "bucket_name",
    "chrome_trace_events",
    "run_report_markdown",
    "to_chrome_trace",
    "write_chrome_trace",
]
