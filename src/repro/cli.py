"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables`` — print the paper's Table 1 and Table 2.
* ``danger`` — print the analytic danger curves (equations 12, 14, 18, 19)
  for given model parameters; ``sweep --strategy all`` over the same node
  axis measures them.
* ``simulate`` — run one simulated experiment and print its markdown
  report (rates, counters, oracle verdict, fault timeline, and sparkline
  series with ``--sample-interval``); ``--json`` saves the run's document,
  ``--trace-out`` exports a Chrome/Perfetto trace (open it at
  https://ui.perfetto.dev).
* ``compare`` — run every strategy at the given parameters and print the
  section-8 scorecard.
* ``verify`` — record a run's history and judge it against the strategy's
  declared guarantee (one-copy serializable or convergent).
* ``sweep`` — run a (strategy × nodes × seed) campaign over a worker pool
  and print mean ± 95% CI per cell with measured-vs-model fit exponents.
* ``report`` — render a saved ``simulate --json`` or ``loadtest --out``
  result as markdown.
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
    python -m repro simulate --strategy lazy-group --nodes 8 \\
        --faults partition=5 --sample-interval 0.5 --json run.json \\
        --trace-out trace.json
    python -m repro report run.json --out report.md
    python -m repro serve --socket /tmp/repro.sock --mobiles 8
    python -m repro loadtest --socket /tmp/repro.sock --clients 100 \\
        --rate 2000 --duration 10 --out loadtest.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import List, Optional

# Each verb imports the layers it runs inside its own body, so a verb
# loads only what it uses (``serve`` never loads the simulator harness,
# the analytic equations or the campaign pool).  The parser itself needs
# only the preset and strategy-name tables, which import no equation and
# no strategy.
from repro.analytic.parameters import MODEL_TRACKS, ModelParameters
from repro.analytic.presets import PRESETS, preset
from repro.exceptions import ConfigurationError
from repro.harness.strategies import STRATEGIES

# Which flags reach which path: the analytic commands (``tables``,
# ``danger``) evaluate the closed-form model, which uses every Table-2 flag
# *except* --message-delay (the paper drops message costs: "These delays
# and extra processing are ignored").  The simulated commands
# (``simulate``, ``compare``, ``verify``, ``sweep``) honour
# --message-delay as real propagation latency.
_FLAG_PATHS_EPILOG = (
    "flag paths: --db-size/--nodes/--tps/--actions/--action-time/"
    "--disconnect-time feed both the analytic model and the simulator; "
    "--message-delay only affects simulated runs (the analytic model "
    "ignores message costs by construction)."
)


def _add_model_arguments(parser: argparse.ArgumentParser,
                         nodes_list: bool = False) -> None:
    # every model flag defaults to None: _params starts from the preset
    # (paper-baseline unless --preset names another) and overrides exactly
    # the flags the user gave
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        default="paper-baseline",
                        help="start from a named scenario preset (default: "
                        "paper-baseline); explicit flags override its "
                        "fields")
    parser.add_argument("--db-size", type=int,
                        help="objects in the database (Table 2 DB_Size)")
    if nodes_list:
        parser.add_argument("--nodes",
                            help="comma-separated replica node counts to "
                            "sweep (e.g. 1,2,4,8)")
    else:
        parser.add_argument("--nodes", type=int,
                            help="replica nodes (Table 2 Nodes)")
    parser.add_argument("--tps", type=float,
                        help="transactions/second per node (Table 2 TPS)")
    parser.add_argument("--actions", type=int,
                        help="updates per transaction (Table 2 Actions)")
    parser.add_argument("--action-time", type=float,
                        help="seconds per action (Table 2 Action_Time)")
    parser.add_argument("--disconnect-time", type=float,
                        help="mean dark period for mobile scenarios")
    parser.add_argument("--message-delay", type=float,
                        help="replica propagation delay in seconds; the "
                        "simulator honours it, the analytic model ignores "
                        "it (the paper drops message costs)")


def _params(args: argparse.Namespace) -> ModelParameters:
    """The preset, with every model flag the user gave in place."""
    base = preset(args.preset)
    return base.with_(**{
        field.name: getattr(args, field.name)
        for field in fields(ModelParameters)
        if getattr(args, field.name, None) is not None
    })


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.analytic.tables import render_table_1, render_table_2

    print(render_table_1())
    print()
    print(render_table_2(_params(args)))
    return 0


def cmd_danger(args: argparse.Namespace) -> int:
    from repro.analytic import lazy_group
    from repro.analytic.reference import danger_curves
    from repro.analytic.scaling import safe_fit_exponent, sweep
    from repro.metrics.report import format_series

    params = _params(args)
    # the fixed axis, plus the scenario's own node count (the preset's, or
    # the one asked for with --nodes)
    node_axis = sorted({1, 2, 5, 10, max(2, params.nodes)})
    placement = _placement_spec(args)
    k = getattr(placement, "replication_factor", None)
    curves = danger_curves(args.model, k)
    if params.disconnect_time > 0:
        curves.append(("mobile reconciliations/s (eq 18)",
                       lazy_group.mobile_reconciliation_rate))
    for label, fn in curves:
        result = sweep(fn, params, "nodes", node_axis)
        print(format_series(result.xs, result.ys, x_label="nodes",
                            y_label=label))
        exponent = safe_fit_exponent(result.xs, result.ys)
        order = "n/a" if exponent is None else f"N^{exponent:.1f}"
        print(f"  growth order: {order}\n")
    return 0


def _fault_plan(args: argparse.Namespace, params: ModelParameters):
    """Materialise the --faults spec for the configured topology."""
    if not getattr(args, "faults", None):
        return None
    from repro.faults.plan import FaultPlan
    from repro.harness.experiment import network_size

    return FaultPlan.from_spec(
        args.faults,
        num_nodes=network_size(args.strategy, params.nodes),
        duration=args.duration,
        fault_seed=args.fault_seed,
    )


def _add_model_track_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=MODEL_TRACKS,
                        default=MODEL_TRACKS[0],
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


def _trace_categories(text: str) -> str:
    """argparse type for --trace: 'all' or known categories, comma-separated."""
    from repro.sim.tracing import Tracer

    unknown = sorted(set(text.split(",")) - set(Tracer.KNOWN_CATEGORIES))
    if text != "all" and unknown:
        raise argparse.ArgumentTypeError(
            f"unknown trace categories {unknown}; expected 'all' or a "
            f"comma-separated list of {', '.join(Tracer.KNOWN_CATEGORIES)}"
        )
    return text


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one experiment and print its report (the run's one document)."""
    from repro.harness.experiment import ExperimentConfig, run_experiment
    from repro.harness.export import result_to_dict, write_json
    from repro.obs.report import run_report_markdown

    params = _params(args)
    tracer = None
    if args.trace or args.trace_out:
        from repro.sim.tracing import Tracer

        # --trace-out alone records every category, and a trace bound for
        # a file keeps every event
        categories = (None if args.trace in (None, "all")
                      else args.trace.split(","))
        tracer = (Tracer(categories, limit=None) if args.trace_out
                  else Tracer(categories))
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
            sample_interval=args.sample_interval,
            profiler=profiler,
            placement=_placement_spec(args),
        )
    )
    document = result_to_dict(result)
    print(run_report_markdown(document))
    if args.json:
        path = write_json(document, args.json)
        print(f"result written to {path}")
    if args.trace:
        sample = [e for e in tracer.events() if e.time <= 5.0][:40]
        print(f"\ntrace sample (first 5 virtual seconds, "
              f"{len(sample)} events):")
        for event in sample:
            print("  " + event.format())
    if args.trace_out:
        from repro.obs.chrome_trace import write_chrome_trace

        path = write_chrome_trace(tracer, args.trace_out,
                                  num_nodes=result.system.num_nodes)
        print(f"{len(tracer)} trace events written to {path} "
              f"(open at https://ui.perfetto.dev)")
    if profiler is not None:
        print()
        print(profiler.table())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a saved ``simulate --json`` or ``loadtest --out`` result."""
    import json as _json
    from pathlib import Path

    from repro.obs.report import saved_report_markdown

    source = Path(args.path)
    try:
        markdown = saved_report_markdown(
            _json.loads(source.read_text(encoding="utf-8"))
        )
    except (OSError, ValueError) as exc:  # unreadable, not JSON, no result
        raise SystemExit(f"cannot read result {source}: {exc}")
    if args.out:
        target = Path(args.out)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(markdown, encoding="utf-8")
        print(f"report written to {target}")
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
    """Every strategy at one load, one seed: a one-point campaign."""
    from repro.harness.campaign import Campaign, run_campaign, scorecard_table

    campaign = Campaign(strategies=STRATEGIES, base_params=_params(args),
                        seeds=(args.seed,), duration=args.duration,
                        commutative=args.commutative)
    outcome = run_campaign(campaign, jobs=args.jobs, cache_dir=args.cache_dir)
    if outcome.failures:
        raise SystemExit("\n".join(
            f"strategy comparison run failed: {run.spec.label()}: {run.error}"
            for run in outcome.failures
        ))
    print(scorecard_table(outcome.aggregate()))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run a strategy with history recording and judge it against the
    guarantee it declares."""
    from repro.faults.oracle import evaluate
    from repro.harness.experiment import ExperimentConfig, run_experiment

    params = _params(args)
    # the one harness path: history recording and deadlock retries are
    # plain ExperimentConfig fields, and the result keeps the live system
    # for the judge (propagate_ops stays off — the workload commutes, but
    # propagation ships values, matching the baseline measurements)
    system = run_experiment(
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
    ).system
    verdict = evaluate(system)
    print(f"strategy: {args.strategy} (declares {system.guarantee})")
    print(f"committed transactions: {len(system.history.committed_ids)}")
    print(f"one-copy serializable: {verdict.witness is None}")
    if verdict.witness is not None:
        print("anomaly witness: " + " -> ".join(map(str, verdict.witness)))
    print(verdict.describe())
    return 0 if verdict.ok else 1


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
    from repro.harness.campaign import Campaign, campaign_table, run_campaign

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
    # the list is the axis; its first value (or the preset's node count)
    # is the base point
    node_values = (None if args.nodes is None
                   else _parse_node_list(args.nodes))
    args.nodes = node_values[0] if node_values else None
    params = _params(args)
    node_values = node_values or [params.nodes]
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
    _add_placement_argument(p_danger)
    _add_model_track_argument(p_danger)
    p_danger.set_defaults(fn=cmd_danger)

    p_sim = sub.add_parser(
        "simulate",
        help="run one simulated experiment and print its report",
    )
    _add_model_arguments(p_sim)
    p_sim.add_argument("--strategy", choices=STRATEGIES, default="lazy-master")
    p_sim.add_argument("--duration", type=float, default=60.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--commutative", action="store_true",
                       help="use commuting increment transactions")
    p_sim.add_argument("--trace", default=None, type=_trace_categories,
                       help="print a trace sample; comma-separated "
                       "categories or 'all' (e.g. --trace deadlock,commit)")
    p_sim.add_argument("--json", default=None, metavar="PATH",
                       help="also write the result as JSON to PATH "
                       "('repro report PATH' renders it again)")
    p_sim.add_argument("--trace-out", default=None, metavar="PATH",
                       help="export every traced event (all categories "
                       "unless --trace narrows them) as Chrome/Perfetto "
                       "JSON to PATH")
    p_sim.add_argument("--sample-interval", type=float, default=0.0,
                       metavar="SEC",
                       help="telemetry window in virtual seconds; adds the "
                       "report's time-series section (default 0: off)")
    _add_placement_argument(p_sim)
    p_sim.add_argument("--profile", action="store_true",
                       help="print the engine dispatch hot-spot table "
                       "after the run")
    _add_fault_arguments(p_sim)
    p_sim.set_defaults(fn=cmd_simulate)

    p_report = sub.add_parser(
        "report",
        help="render a saved 'simulate --json' or 'loadtest --out' result "
        "as markdown",
    )
    p_report.add_argument("path", metavar="PATH",
                          help="the result JSON to render")
    p_report.add_argument("--out", default=None, metavar="PATH",
                          help="write markdown to PATH instead of stdout")
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
        help="record a run's history and judge the declared guarantee",
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
