"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables`` — print the paper's Table 1 and Table 2.
* ``danger`` — print the analytic danger curves (equations 12, 14, 18, 19)
  for given model parameters; ``--measure`` adds simulated points.
* ``simulate`` — run one simulated experiment and print its measured rates.
* ``compare`` — run every strategy at the given parameters and print the
  section-8 scorecard.
* ``verify`` — record a run's history and certify schedule serializability.
* ``sweep`` — run a (strategy × nodes × seed) campaign over a worker pool
  and print mean ± 95% CI per cell with measured-vs-model fit exponents.
* ``trace`` — run one experiment with full tracing and export a
  Chrome/Perfetto ``trace.json`` (open it at https://ui.perfetto.dev).
* ``report`` — run one experiment with telemetry sampling and render a
  markdown run report (counters, oracle verdict, fault timeline,
  sparkline series); ``report --loadtest result.json`` instead renders a
  service load-test result.
* ``serve`` — serve the two-tier engine on *real* time: an asyncio
  gateway speaking newline-delimited JSON over TCP or a unix socket.
* ``loadtest`` — drive a running gateway with N concurrent open-loop
  clients and report throughput, latency percentiles, and the
  drained-state oracle verdict.

Examples::

    python -m repro danger --nodes 20 --db-size 10000
    python -m repro simulate --strategy lazy-group --nodes 4 --duration 60
    python -m repro compare --nodes 4 --tps 3 --db-size 60
    python -m repro sweep --strategy lazy-group --nodes 1,2,4,8 --seeds 5 --jobs 4
    python -m repro trace --strategy lazy-group --nodes 8 --faults partition=5 --out trace.json
    python -m repro report --strategy two-tier --nodes 4 --out report.md
    python -m repro serve --socket /tmp/repro.sock --mobiles 8
    python -m repro loadtest --socket /tmp/repro.sock --clients 100 \\
        --rate 2000 --duration 10 --out loadtest.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analytic import (
    ModelParameters,
    eager,
    lazy_group,
    lazy_master,
    partial,
    two_tier,
)
from repro.analytic import markov_strategies
from repro.analytic.presets import PRESETS, preset
from repro.analytic.scaling import safe_fit_exponent, sweep
from repro.analytic.tables import render_table_1, render_table_2
from repro.exceptions import ConfigurationError
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.campaign import Campaign, campaign_table, run_campaign
from repro.harness.comparison import strategy_comparison, strategy_table
from repro.harness.experiment import STRATEGIES
from repro.metrics.report import format_series, format_table

# Which flags reach which path: the analytic commands (``tables``,
# ``danger`` without --measure) evaluate the closed-form model, which uses
# every Table-2 flag *except* --message-delay (the paper drops message
# costs: "These delays and extra processing are ignored").  The simulated
# commands (``simulate``, ``compare``, ``verify``, ``sweep``, ``danger
# --measure``) honour --message-delay as real propagation latency.
_FLAG_PATHS_EPILOG = (
    "flag paths: --db-size/--nodes/--tps/--actions/--action-time/"
    "--disconnect-time feed both the analytic model and the simulator; "
    "--message-delay only affects simulated runs (the analytic model "
    "ignores message costs by construction)."
)


def _add_model_arguments(parser: argparse.ArgumentParser,
                         nodes_list: bool = False) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="start from a named scenario preset; explicit "
                        "flags override its fields")
    parser.add_argument("--db-size", type=int, default=10_000,
                        help="objects in the database (Table 2 DB_Size)")
    if nodes_list:
        parser.add_argument("--nodes", default="10",
                            help="comma-separated replica node counts to "
                            "sweep (e.g. 1,2,4,8)")
    else:
        parser.add_argument("--nodes", type=int, default=10,
                            help="replica nodes (Table 2 Nodes)")
    parser.add_argument("--tps", type=float, default=10.0,
                        help="transactions/second per node (Table 2 TPS)")
    parser.add_argument("--actions", type=int, default=5,
                        help="updates per transaction (Table 2 Actions)")
    parser.add_argument("--action-time", type=float, default=0.01,
                        help="seconds per action (Table 2 Action_Time)")
    parser.add_argument("--disconnect-time", type=float, default=0.0,
                        help="mean dark period for mobile scenarios")
    parser.add_argument("--message-delay", type=float, default=0.0,
                        help="replica propagation delay in seconds; the "
                        "simulator honours it, the analytic model ignores "
                        "it (the paper drops message costs)")


_MODEL_FLAGS = {
    "db_size": 10_000,
    "nodes": 10,
    "tps": 10.0,
    "actions": 5,
    "action_time": 0.01,
    "disconnect_time": 0.0,
    "message_delay": 0.0,
}


def _params(args: argparse.Namespace) -> ModelParameters:
    if args.preset:
        base = preset(args.preset)
        overrides = {
            name: getattr(args, name)
            for name, default in _MODEL_FLAGS.items()
            if getattr(args, name) != default  # flag explicitly set
        }
        return base.with_(**overrides)
    return ModelParameters(
        db_size=args.db_size,
        nodes=args.nodes,
        tps=args.tps,
        actions=args.actions,
        action_time=args.action_time,
        disconnect_time=args.disconnect_time,
        message_delay=args.message_delay,
    )


def cmd_tables(args: argparse.Namespace) -> int:
    print(render_table_1())
    print()
    print(render_table_2(_params(args)))
    return 0


def cmd_danger(args: argparse.Namespace) -> int:
    params = _params(args)
    node_axis = sorted({1, 2, 5, 10, max(2, args.nodes)})
    placement = _placement_spec(args)
    k = getattr(placement, "replication_factor", None)
    if args.model == "markov":
        # the Markov track: every strategy's chain-predicted danger rate
        curves = [
            (f"{strategy} {markov_strategies.MARKOV_REFERENCE[strategy][1]}"
             + (f" (k={k})" if k is not None else ""),
             lambda p, s=strategy: markov_strategies.reference_rate(s, p, k))
            for strategy in markov_strategies.MARKOV_STRATEGIES
        ]
    else:
        curves = [
            ("eager deadlocks/s (eq 12)", eager.total_deadlock_rate),
            ("lazy-group reconciliations/s (eq 14)",
             lazy_group.reconciliation_rate),
            ("lazy-master deadlocks/s (eq 19)", lazy_master.deadlock_rate),
            ("two-tier base deadlocks/s", two_tier.base_deadlock_rate),
        ]
        if k is not None:
            # partial-replication analogues alongside the full laws
            curves += [
                (f"partial eager deadlocks/s (k={k})",
                 lambda p, k=k: partial.deadlock_rate(p, k)),
                (f"partial lazy-group reconciliations/s (k={k})",
                 lambda p, k=k: partial.reconciliation_rate(p, k)),
            ]
    for label, fn in curves:
        result = sweep(fn, params, "nodes", node_axis)
        print(format_series(result.xs, result.ys, x_label="nodes",
                            y_label=label))
        exponent = safe_fit_exponent(result.xs, result.ys)
        order = "n/a" if exponent is None else f"N^{exponent:.1f}"
        print(f"  growth order: {order}\n")
    if params.disconnect_time > 0:
        result = sweep(lazy_group.mobile_reconciliation_rate, params,
                       "nodes", node_axis)
        print(format_series(result.xs, result.ys, x_label="nodes",
                            y_label="mobile reconciliations/s (eq 18)"))
        exponent = safe_fit_exponent(result.xs, result.ys)
        order = "n/a" if exponent is None else f"N^{exponent:.1f}"
        print(f"  growth order: {order}\n")
    if args.measure:
        _print_measured_danger(args, params, node_axis)
    return 0


def _print_measured_danger(args: argparse.Namespace, params: ModelParameters,
                           node_axis: List[int]) -> None:
    """The danger curves' measured side: a campaign over the node axis."""
    campaign = Campaign(
        strategies=STRATEGIES,
        base_params=params,
        axis="nodes",
        values=tuple(node_axis),
        seeds=tuple(range(args.seeds)),
        duration=args.duration,
        placement=getattr(args, "placement", None),
        model=getattr(args, "model", "closed-form"),
    )
    outcome = run_campaign(campaign, jobs=args.jobs,
                           cache_dir=args.cache_dir,
                           progress=_progress_line(campaign.total_runs))
    print(campaign_table(
        outcome.aggregate(),
        title="measured danger rates (simulated, mean over "
        f"{args.seeds} seed(s))",
    ))
    print()
    for fit in outcome.fits():
        print("  " + fit.describe())
    print(f"\n{outcome.describe()}")


def _fault_plan(args: argparse.Namespace, params: ModelParameters):
    """Materialise the --faults spec for the configured topology."""
    if not getattr(args, "faults", None):
        return None
    from repro.faults.plan import FaultPlan

    num_nodes = params.nodes
    if getattr(args, "strategy", None) == "two-tier":
        num_nodes += 1  # the default single base node
    return FaultPlan.from_spec(
        args.faults,
        num_nodes=num_nodes,
        duration=args.duration,
        fault_seed=args.fault_seed,
    )


def _add_model_track_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=("closed-form", "markov"),
                        default="closed-form",
                        help="analytic track for predicted rates and fit "
                        "exponents: the paper's closed-form equations "
                        "(default) or the Markov transaction-state chains")


def _add_placement_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--placement", default=None, metavar="SPEC",
                        help="replica placement spec: 'full' (default: "
                        "every node holds every object), "
                        "'hash:k=<replicas>[,seed=<n>]' for rendezvous-"
                        "hashed partial replication (e.g. hash:k=3), or "
                        "'dir:k=<replicas>[,shards=<S>][,group=locality|"
                        "hash][,seed=<n>]' for an explicit shard-map "
                        "directory with locality grouping and live "
                        "migration (e.g. dir:k=3,group=locality)")


def _placement_spec(args: argparse.Namespace):
    """Parse the --placement flag into a Placement spec (None = full)."""
    if not getattr(args, "placement", None):
        return None
    from repro.placement import Placement

    return Placement.from_spec(args.placement)


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault spec, comma-separated key=value pairs: "
                        "drop/dup/reorder (probabilities), jitter (max "
                        "extra seconds), partition=<sec|forever>, "
                        "crash=<sec|forever> (e.g. drop=0.05,partition=2)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault randomness stream selector; workload "
                        "streams are unaffected")


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params(args)
    tracer = None
    if args.trace:
        from repro.sim.tracing import Tracer

        tracer = Tracer(categories=set(args.trace.split(","))
                        if args.trace != "all" else None)
    profiler = None
    if args.profile:
        from repro.obs.profiler import Profiler

        profiler = Profiler()
    result = run_experiment(
        ExperimentConfig(
            strategy=args.strategy,
            params=params,
            duration=args.duration,
            seed=args.seed,
            commutative=args.commutative,
            faults=_fault_plan(args, params),
            tracer=tracer,
            profiler=profiler,
            placement=_placement_spec(args),
        )
    )
    print(format_table(
        ["quantity", "value"],
        sorted(result.rates.as_dict().items()),
        title=f"{args.strategy} at {params.describe()}",
    ))
    print()
    print(format_table(
        ["counter", "count"],
        sorted((k, v) for k, v in result.metrics.as_dict().items() if v),
        title="raw counters",
    ))
    print(f"\ndivergence after drain: {result.divergence}")
    resident = result.extra.get("resident_objects")
    if args.placement and resident:
        print(f"resident objects/node: max {resident['max']} "
              f"mean {resident['mean']:.1f} of db_size {resident['db_size']} "
              f"(replication factor {resident['replication_factor']})")
        if "materialized_total" in resident:
            print(f"materialized records: {resident['materialized_total']} "
                  f"of {resident['total']} nominal "
                  f"(max/node {resident['materialized_max']})")
    if result.extra.get("fault_stats"):
        print(format_table(
            ["fault", "count"],
            sorted((k, v) for k, v in result.extra["fault_stats"].items()),
            title="injected faults",
        ))
    oracle_ok = result.extra.get("oracle_ok")
    if oracle_ok is not None:
        verdict = "ok" if oracle_ok else "FAIL"
        print(f"invariant oracle: {verdict}")
        for failure in result.extra.get("oracle_failures") or ():
            print(f"  - {failure}")
    if args.json:
        from repro.harness.export import write_json

        path = write_json(result, args.json)
        print(f"result written to {path}")
    if tracer is not None:
        sample = [e for e in tracer.events() if e.time <= 5.0][:40]
        print(f"\ntrace sample (first 5 virtual seconds, "
              f"{len(sample)} events):")
        for event in sample:
            print("  " + event.format())
    if args.trace_out:
        from repro.obs.chrome_trace import write_chrome_trace

        if tracer is None:
            raise SystemExit("--trace-out needs --trace (e.g. --trace all)")
        path = write_chrome_trace(tracer, args.trace_out,
                                  num_nodes=result.system.num_nodes)
        print(f"chrome trace written to {path} "
              f"(open at https://ui.perfetto.dev)")
    if profiler is not None:
        print()
        print(profiler.table())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment fully traced and export Chrome/Perfetto JSON."""
    from repro.obs.chrome_trace import write_chrome_trace
    from repro.sim.tracing import Tracer

    params = _params(args)
    categories = (set(args.categories.split(","))
                  if args.categories != "all" else None)
    tracer = Tracer(categories=categories, limit=args.limit)
    result = run_experiment(
        ExperimentConfig(
            strategy=args.strategy,
            params=params,
            duration=args.duration,
            seed=args.seed,
            commutative=args.commutative,
            faults=_fault_plan(args, params),
            tracer=tracer,
        )
    )
    path = write_chrome_trace(tracer, args.out,
                              num_nodes=result.system.num_nodes)
    print(f"{len(tracer)} trace events ({result.end_time:.1f} virtual "
          f"seconds) written to {path}")
    if tracer.dropped:
        print(f"warning: {tracer.dropped} events dropped by the ring "
              f"buffer; re-run with a larger --limit", file=sys.stderr)
    print("open it at https://ui.perfetto.dev (or chrome://tracing): "
          "one track per node, transactions as slices, "
          "faults/partitions as instants")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run one experiment with sampling and render a markdown run report."""
    from repro.obs.report import build_report, write_report

    if args.loadtest:
        return _report_loadtest(args)
    params = _params(args)
    interval = args.sample_interval
    if interval is None:
        interval = max(args.duration / 50.0, 1e-9)
    result = run_experiment(
        ExperimentConfig(
            strategy=args.strategy,
            params=params,
            duration=args.duration,
            seed=args.seed,
            commutative=args.commutative,
            faults=_fault_plan(args, params),
            sample_interval=interval,
        )
    )
    report = build_report(result)
    if args.out:
        path = write_report(report, args.out)
        print(f"run report written to {path}")
    else:
        print(report.to_markdown())
    if args.json:
        import json as _json
        from pathlib import Path

        target = Path(args.json)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as fh:
            _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report JSON written to {target}")
    return 0


def _report_loadtest(args: argparse.Namespace) -> int:
    """Render a saved ``repro loadtest`` result JSON as markdown."""
    import json as _json
    from pathlib import Path

    from repro.obs.report import service_report_markdown

    source = Path(args.loadtest)
    try:
        payload = _json.loads(source.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read loadtest result {source}: {exc}")
    try:
        markdown = service_report_markdown(payload)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.out:
        target = Path(args.out)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(markdown, encoding="utf-8")
        print(f"service report written to {target}")
    else:
        print(markdown)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the two-tier engine on real time over NDJSON sockets."""
    import asyncio
    import signal

    from repro.service import GatewayConfig, ServiceGateway

    config = GatewayConfig(
        num_base=args.num_base,
        mobiles=args.mobiles,
        db_size=args.db_size,
        action_time=args.action_time,
        message_delay=args.message_delay,
        seed=args.seed,
        initial_value=args.initial_value,
        max_inflight=args.max_inflight,
        sample_interval=args.sample_interval,
    )

    async def _serve() -> None:
        gateway = ServiceGateway(config)
        await gateway.start(host=args.host, port=args.port,
                            unix_path=args.socket)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, gateway.request_stop)
            except NotImplementedError:  # pragma: no cover - non-unix loop
                pass
        endpoint = (args.socket if args.socket
                    else f"{args.host}:{gateway.tcp_port}")
        print(f"serving on {endpoint}: {config.mobiles} mobile(s) over "
              f"{config.num_base} base node(s), db_size {config.db_size}, "
              f"max in-flight {config.max_inflight}", flush=True)
        await gateway.run()
        print(f"stopped after {gateway.served} transaction(s): "
              f"{gateway.accepted} accepted, {gateway.rejected} rejected, "
              f"{gateway.errors} error(s)")

    asyncio.run(_serve())
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Drive a running gateway with concurrent open-loop clients."""
    import asyncio
    import json as _json
    from pathlib import Path

    from repro.service import LoadtestConfig, run_loadtest

    if args.socket is None and args.port is None:
        raise SystemExit("loadtest needs an endpoint: --socket PATH "
                         "or --port N (matching a running 'repro serve')")
    config = LoadtestConfig(
        clients=args.clients,
        rate=args.rate,
        duration=args.duration,
        workload=args.workload,
        zipf_theta=args.zipf,
        actions=args.actions,
        db_size=args.db_size,
        branches=args.branches,
        seed=args.seed,
        drain=not args.no_drain,
        stop_server=args.stop_server,
    )
    result = asyncio.run(run_loadtest(
        config, host=args.host, port=args.port, unix_path=args.socket
    ))
    latency = result["latency_ms"]
    print(f"{result['completed']}/{result['sent']} completed in "
          f"{result['elapsed_seconds']:.2f}s: "
          f"{result['throughput_committed_per_sec']:.1f} committed/s "
          f"({result['accepted']} accepted, {result['rejected']} rejected, "
          f"{result['errors']} error(s), {result['lost']} lost)")
    if latency.get("count"):
        print(f"latency ms: p50 {latency['p50']:.2f}  "
              f"p95 {latency['p95']:.2f}  p99 {latency['p99']:.2f}  "
              f"max {latency['max']:.2f}")
    oracle = result.get("oracle")
    if oracle is not None:
        verdict = "ok" if oracle["ok"] else "FAIL"
        print(f"oracle: {verdict} (store_sum {oracle['store_sum']}, "
              f"expected {oracle['expected_store_sum']}, "
              f"base divergence {oracle['base_divergence']})")
    if args.out:
        target = Path(args.out)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as fh:
            _json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"result written to {target}")
    return 0 if oracle is None or oracle["ok"] else 1


def cmd_compare(args: argparse.Namespace) -> int:
    params = _params(args)
    results = strategy_comparison(
        params, duration=args.duration, seed=args.seed,
        commutative=args.commutative, jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    print(strategy_table(results))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run a strategy with history recording and certify its schedule."""
    from repro.verify.invariants import check_all

    params = _params(args)
    # the one harness path: history recording and deadlock retries are
    # plain ExperimentConfig fields, and the result keeps the live system
    # for certification (propagate_ops stays off — the workload commutes,
    # but propagation ships values, matching the baseline measurements)
    result = run_experiment(
        ExperimentConfig(
            strategy=args.strategy,
            params=params,
            duration=args.duration,
            seed=args.seed,
            commutative=True,
            record_history=True,
            retry_deadlocks=True,
            propagate_ops=False,
        )
    )
    system = result.system

    expect_serializable = args.strategy != "lazy-group"
    report = check_all(system, expect_serializable=expect_serializable)
    graph = system.history.conflict_graph()
    print(f"strategy: {args.strategy}")
    print(f"committed transactions: {len(system.history.committed_ids)}")
    print(f"conflict edges: {graph.edge_count()}")
    print(f"one-copy serializable: {graph.is_serializable()}")
    print(report.describe())
    if args.strategy == "lazy-group" and not graph.is_serializable():
        cycle = graph.find_cycle()
        print("anomaly witness (expected for update-anywhere lazy): "
              + " -> ".join(map(str, cycle)))
        return 0
    return 0 if report.ok and graph.is_serializable() else 1


def _progress_line(total: int):
    """Progress callback printing a single overwriting status line."""
    def report(outcome, done: int, _total: int) -> None:
        origin = "cache" if outcome.cached else outcome.status
        line = f"[{done}/{total}] {outcome.spec.label()} ({origin})"
        end = "\n" if done == total else "\r"
        print(f"{line:<72}", end=end, file=sys.stderr, flush=True)

    return report


def _parse_node_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"invalid --nodes list {text!r}: expected "
                         "comma-separated integers like 1,2,4,8")
    if not values:
        raise SystemExit("--nodes list is empty")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (strategy × nodes × seed) campaign over a worker pool."""
    if args.strategy == "all":
        strategies = STRATEGIES
    else:
        strategies = tuple(args.strategy.split(","))
        for strategy in strategies:
            if strategy not in STRATEGIES:
                raise SystemExit(f"unknown strategy {strategy!r}; expected "
                                 f"one of {', '.join(STRATEGIES)} or 'all'")
    if args.seeds < 1:
        raise SystemExit("--seeds must be at least 1")
    node_values = _parse_node_list(args.nodes)
    args.nodes = node_values[0]  # _params wants a scalar for the base point
    params = _params(args)
    sample_interval = args.sample_interval
    if sample_interval is None:
        # --series-out implies sampling; default to 50 windows per run
        sample_interval = args.duration / 50.0 if args.series_out else 0.0
    campaign = Campaign(
        strategies=strategies,
        base_params=params,
        axis="nodes",
        values=tuple(node_values),
        seeds=tuple(range(args.seeds)),
        duration=args.duration,
        commutative=args.commutative,
        warmup=args.warmup,
        faults=args.faults,
        fault_seed=args.fault_seed,
        sample_interval=sample_interval,
        placement=args.placement,
        model=args.model,
    )
    cache_dir = None if args.no_cache else args.cache_dir
    outcome = run_campaign(
        campaign,
        jobs=args.jobs,
        cache_dir=cache_dir,
        timeout=args.timeout,
        progress=_progress_line(campaign.total_runs),
    )
    cells = outcome.aggregate()
    print(campaign_table(
        cells,
        title=f"campaign: {', '.join(strategies)} × nodes "
        f"{','.join(map(str, node_values))} × {args.seeds} seed(s), "
        f"duration {args.duration:g}s, model {args.model}",
    ))
    fits = outcome.fits()
    if fits:
        print("\nfit exponents (rate vs nodes):")
        for fit in fits:
            print("  " + fit.describe())
    print(f"\n{outcome.describe()}")
    for failure in outcome.failures:
        print(f"  FAILED {failure.spec.label()}: {failure.error}",
              file=sys.stderr)
    if args.json:
        from repro.harness.export import campaign_to_dict, write_json

        path = write_json(campaign_to_dict(outcome), args.json)
        print(f"campaign written to {path}")
    if args.csv:
        from repro.harness.export import write_campaign_csv

        path = write_campaign_csv(outcome, args.csv)
        print(f"cell aggregates written to {path}")
    if args.series_out:
        from repro.harness.export import write_campaign_series

        written = write_campaign_series(outcome, args.series_out)
        if written:
            print(f"{len(written)} per-cell time-series file(s) written "
                  f"to {args.series_out}")
        else:
            print("no time-series to write (cached pre-telemetry payloads? "
                  "clear the cache or use --no-cache)", file=sys.stderr)
    return 0 if not outcome.failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "The Dangers of Replication and a Solution (Gray et al. 1996), "
            "reproduced: analytic curves, simulated experiments, and the "
            "two-tier protocol."
        ),
        epilog=_FLAG_PATHS_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="print Tables 1 and 2",
                              epilog=_FLAG_PATHS_EPILOG)
    _add_model_arguments(p_tables)
    p_tables.set_defaults(fn=cmd_tables)

    p_danger = sub.add_parser("danger",
                              help="print the analytic danger curves",
                              epilog=_FLAG_PATHS_EPILOG)
    _add_model_arguments(p_danger)
    p_danger.add_argument("--measure", action="store_true",
                          help="also run a simulated campaign along the "
                          "node axis and print measured rates with CIs")
    p_danger.add_argument("--seeds", type=int, default=3,
                          help="seed replicas per measured point")
    p_danger.add_argument("--duration", type=float, default=30.0,
                          help="virtual seconds per measured run")
    p_danger.add_argument("--jobs", type=int, default=1,
                          help="worker processes for --measure (0 = inline)")
    _add_placement_argument(p_danger)
    _add_model_track_argument(p_danger)
    p_danger.add_argument("--cache-dir", default=None, metavar="PATH",
                          help="content-hash result cache for --measure")
    p_danger.set_defaults(fn=cmd_danger)

    p_sim = sub.add_parser("simulate", help="run one simulated experiment")
    _add_model_arguments(p_sim)
    p_sim.add_argument("--strategy", choices=STRATEGIES, default="lazy-master")
    p_sim.add_argument("--duration", type=float, default=60.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--commutative", action="store_true",
                       help="use commuting increment transactions")
    p_sim.add_argument("--trace", default=None,
                       help="print a trace sample; comma-separated "
                       "categories or 'all' (e.g. --trace deadlock,commit)")
    p_sim.add_argument("--json", default=None, metavar="PATH",
                       help="also write the result as JSON to PATH")
    p_sim.add_argument("--trace-out", default=None, metavar="PATH",
                       help="export the trace (requires --trace) as "
                       "Chrome/Perfetto JSON to PATH")
    _add_placement_argument(p_sim)
    p_sim.add_argument("--profile", action="store_true",
                       help="print the engine dispatch hot-spot table "
                       "after the run")
    _add_fault_arguments(p_sim)
    p_sim.set_defaults(fn=cmd_simulate)

    p_trace = sub.add_parser(
        "trace",
        help="run one fully-traced experiment and export Perfetto JSON",
    )
    _add_model_arguments(p_trace)
    p_trace.add_argument("--strategy", choices=STRATEGIES,
                         default="lazy-group")
    p_trace.add_argument("--duration", type=float, default=30.0)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--commutative", action="store_true",
                         help="use commuting increment transactions")
    p_trace.add_argument("--categories", default="all",
                         help="comma-separated trace categories to record "
                         "(default: all)")
    p_trace.add_argument("--limit", type=int, default=100_000,
                         help="trace ring-buffer size (events)")
    p_trace.add_argument("--out", default="trace.json", metavar="PATH",
                         help="output path (default: trace.json)")
    _add_fault_arguments(p_trace)
    p_trace.set_defaults(fn=cmd_trace)

    p_report = sub.add_parser(
        "report",
        help="run one sampled experiment and render a markdown run report",
    )
    _add_model_arguments(p_report)
    p_report.add_argument("--strategy", choices=STRATEGIES,
                          default="lazy-group")
    p_report.add_argument("--duration", type=float, default=30.0)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--commutative", action="store_true",
                          help="use commuting increment transactions")
    p_report.add_argument("--sample-interval", type=float, default=None,
                          metavar="SEC",
                          help="telemetry window in virtual seconds "
                          "(default: duration/50)")
    p_report.add_argument("--out", default=None, metavar="PATH",
                          help="write markdown to PATH instead of stdout")
    p_report.add_argument("--json", default=None, metavar="PATH",
                          help="also write the report as JSON to PATH")
    p_report.add_argument("--loadtest", default=None, metavar="PATH",
                          help="render a saved 'repro loadtest' result "
                          "JSON instead of running an experiment")
    _add_fault_arguments(p_report)
    p_report.set_defaults(fn=cmd_report)

    p_cmp = sub.add_parser("compare", help="run every strategy, one table",
                           epilog=_FLAG_PATHS_EPILOG)
    _add_model_arguments(p_cmp)
    p_cmp.add_argument("--duration", type=float, default=60.0)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--commutative", action="store_true")
    p_cmp.add_argument("--jobs", type=int, default=0,
                       help="worker processes (0 = run inline)")
    p_cmp.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="content-hash result cache directory")
    p_cmp.set_defaults(fn=cmd_compare)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a (strategy × nodes × seed) campaign over a worker pool",
        epilog=_FLAG_PATHS_EPILOG,
    )
    _add_model_arguments(p_sweep, nodes_list=True)
    p_sweep.add_argument("--strategy", default="lazy-group",
                         help="strategy name, comma-separated list, or "
                         "'all' (default: lazy-group)")
    p_sweep.add_argument("--seeds", type=int, default=3,
                         help="seed replicas per grid cell (seeds 0..N-1)")
    p_sweep.add_argument("--duration", type=float, default=30.0,
                         help="virtual seconds per run")
    p_sweep.add_argument("--warmup", type=float, default=0.0,
                         help="virtual warmup seconds excluded from rates")
    p_sweep.add_argument("--commutative", action="store_true",
                         help="use commuting increment transactions")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (0 = run inline, no "
                         "crash isolation)")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         help="per-run wall-clock limit in seconds")
    p_sweep.add_argument("--cache-dir", default=".repro_cache",
                         metavar="PATH",
                         help="content-hash result cache directory "
                         "(default: .repro_cache)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="disable the result cache")
    p_sweep.add_argument("--json", default=None, metavar="PATH",
                         help="write the full campaign (runs + cells + "
                         "fits) as JSON")
    p_sweep.add_argument("--csv", default=None, metavar="PATH",
                         help="write per-cell rate aggregates as CSV")
    p_sweep.add_argument("--series-out", default=None, metavar="DIR",
                         help="write per-cell telemetry time-series JSON "
                         "files into DIR (implies sampling)")
    _add_placement_argument(p_sweep)
    _add_model_track_argument(p_sweep)
    p_sweep.add_argument("--sample-interval", type=float, default=None,
                         metavar="SEC",
                         help="telemetry window in virtual seconds "
                         "(default: duration/50 when --series-out is set, "
                         "else off)")
    _add_fault_arguments(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_verify = sub.add_parser(
        "verify",
        help="record a run's history and certify schedule serializability",
    )
    _add_model_arguments(p_verify)
    p_verify.add_argument("--strategy", choices=STRATEGIES,
                          default="eager-group")
    p_verify.add_argument("--duration", type=float, default=30.0)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(fn=cmd_verify)

    p_serve = sub.add_parser(
        "serve",
        help="serve the two-tier engine on real time (NDJSON TCP/unix)",
    )
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="listen on a unix socket at PATH "
                         "(overrides --host/--port)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="TCP bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="TCP port (default: an ephemeral port, "
                         "printed at startup)")
    p_serve.add_argument("--mobiles", type=int, default=4,
                         help="mobile nodes in the connection pool "
                         "(default: 4)")
    p_serve.add_argument("--num-base", type=int, default=1,
                         help="base-tier nodes (default: 1)")
    p_serve.add_argument("--db-size", type=int, default=1000,
                         help="objects in the served database")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--initial-value", type=int, default=0,
                         help="starting value of every object")
    p_serve.add_argument("--action-time", type=float, default=0.0,
                         help="artificial seconds per action (default 0: "
                         "real work already costs real time)")
    p_serve.add_argument("--message-delay", type=float, default=0.0,
                         help="artificial replica propagation delay")
    p_serve.add_argument("--max-inflight", type=int, default=256,
                         help="global in-flight transaction cap; beyond "
                         "it the readers stop and TCP pushes back")
    p_serve.add_argument("--sample-interval", type=float, default=0.0,
                         metavar="SEC",
                         help="telemetry sampling window in seconds "
                         "(0 = off)")
    p_serve.set_defaults(fn=cmd_serve)

    p_load = sub.add_parser(
        "loadtest",
        help="drive a running gateway with concurrent open-loop clients",
    )
    p_load.add_argument("--socket", default=None, metavar="PATH",
                        help="connect to a unix socket at PATH")
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=None)
    p_load.add_argument("--clients", type=int, default=100,
                        help="concurrent connections (default: 100)")
    p_load.add_argument("--rate", type=float, default=2000.0,
                        help="total offered load, txns/sec across all "
                        "clients, open-loop Poisson (default: 2000)")
    p_load.add_argument("--duration", type=float, default=5.0,
                        help="send window in seconds (default: 5)")
    p_load.add_argument("--workload",
                        choices=("uniform", "checkbook", "tpcb"),
                        default="uniform")
    p_load.add_argument("--zipf", type=float, default=0.0, metavar="THETA",
                        help="Zipf skew theta in (0,1) for the uniform "
                        "workload (0 = no skew; 0.99 = YCSB hot)")
    p_load.add_argument("--actions", type=int, default=2,
                        help="updates per transaction (uniform workload)")
    p_load.add_argument("--db-size", type=int, default=1000,
                        help="object-id space to draw from (must match "
                        "the server's)")
    p_load.add_argument("--branches", type=int, default=1,
                        help="tpcb branch count (sets the tpcb db size)")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--no-drain", action="store_true",
                        help="skip the drain frame and oracle check")
    p_load.add_argument("--stop-server", action="store_true",
                        help="ask the server to exit after draining")
    p_load.add_argument("--out", default=None, metavar="PATH",
                        help="write the full result JSON to PATH")
    p_load.set_defaults(fn=cmd_loadtest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        raise SystemExit(f"invalid configuration: {exc}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
