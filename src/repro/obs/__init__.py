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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "CounterDeltaSampler": "repro.obs.samplers",
    "GaugeSampler": "repro.obs.samplers",
    "Profiler": "repro.obs.profiler",
    "SeriesSummary": "repro.obs.samplers",
    "Telemetry": "repro.obs.samplers",
    "TimeSeries": "repro.obs.samplers",
    "bucket_name": "repro.obs.profiler",
    "chrome_trace_events": "repro.obs.chrome_trace",
    "run_report_markdown": "repro.obs.report",
    "to_chrome_trace": "repro.obs.chrome_trace",
    "write_chrome_trace": "repro.obs.chrome_trace",
})
