"""One command for the whole ladder.

Two shapes of invocation:

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one measured run
  in this process, the driver's contract: the last line of stdout is one
  JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
* no ``--workload`` — the full set: every workload in a fresh child
  process (so peak RSS is its own), a table of every metric with unit,
  direction and bound, ``baseline.json`` beside this file and
  ``BENCHMARK.json`` at the repo root rewritten from the manifest.
  ``--check-repeat`` runs the set twice and exits non-zero when the two
  medians of a metric differ, either way, by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from benchmarks.ladder import manifest

from benchmarks.ladder.manifest import HERE, OUT_DIR, ROOT

RUN_PY = os.path.join(HERE, "run.py")
BASELINE = os.path.join(HERE, "baseline.json")

#: what ``smoke=True`` measures for: long enough for every window to hold
#: samples, short enough for a test
SMOKE_SECONDS = 2.0


def _des_setup_s(name: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing the simulator and
    building the workload's system."""
    times = []
    for _ in range(manifest.SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, RUN_PY, "--setup-probe", name, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def run_one(
    name: str, seed: int, seconds: float, trace: bool,
    log: Callable[[str], None] = print,
) -> Dict[str, Any]:
    """One measured run of one workload; the driver's result object."""
    if name not in manifest.WORKLOADS:
        raise SystemExit(
            f"unknown workload {name!r}; pick from {manifest.workload_names()}"
        )
    trace_path = os.path.join(OUT_DIR, f"trace-{name}.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    if name.startswith("des_"):
        from benchmarks.ladder import des

        if trace:
            result = des.trace(name, seed, seconds, trace_path, log)
        else:
            result = des.measure(
                name, seed, seconds, _des_setup_s(name, seed), log
            )
    else:
        from benchmarks.ladder import svc

        if trace:
            result = svc.trace(name, seed, seconds, trace_path, log)
        else:
            result = svc.measure(name, seed, seconds, log)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": manifest.labelled(result["values"], trace),
    }


def _declaration(name: str) -> str:
    if name in manifest.END_TO_END:
        unit, better, bound = manifest.END_TO_END[name]
        return f"{unit:<6} {better:<6} bound {bound:g}"
    unit, better = manifest.PER_LAYER[name]
    return f"{unit:<6} {better:<6}"


def print_result(name: str, result: Dict[str, Any]) -> None:
    for metric, entry in result["metrics"].items():
        print(f"  {name:<20} {metric:<42} {entry['value']:>14.6g} "
              f"{_declaration(metric)}")
    share = result["failed"] / result["attempted"]
    print(f"  {name:<20} {'failed_share':<42} {share:>14.6g} "
          f"{result['failed']} of {result['attempted']} attempted; "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")


# ---------------------------------------------------------------------- #
# the full set
# ---------------------------------------------------------------------- #

def _child_run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    completed = subprocess.run(
        [
            sys.executable, RUN_PY, "--workload", name, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stdout.write(completed.stdout)
        raise SystemExit(
            f"{name} (trace {int(trace)}) exited with {completed.returncode}"
        )
    for line in lines[:-1]:
        if not line.startswith("  "):  # the child's table is reprinted below
            print(f"  [{name}] {line}")
    return json.loads(lines[-1])


def full_set(
    seed: int, seconds: float, trace: bool, smoke: bool = False,
    write: bool = True,
) -> Dict[str, Dict[str, Any]]:
    """Every workload, each in its own process; returns name -> result(s).

    ``smoke`` shortens every segment to :data:`SMOKE_SECONDS` worth and
    writes neither ``baseline.json`` nor ``BENCHMARK.json``.
    """
    if smoke:
        seconds, write = SMOKE_SECONDS, False
    started = time.perf_counter()
    results: Dict[str, Dict[str, Any]] = {}
    for name in manifest.workload_names():
        results[name] = {"end_to_end": _child_run(name, seed, seconds, False)}
        if trace:
            results[name]["per_layer"] = _child_run(name, seed, seconds, True)
    print(f"ladder: seed {seed}, {seconds:g} s per run")
    for name, runs in results.items():
        for result in runs.values():
            print_result(name, result)
    if write:
        with open(BASELINE, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": seed, "seconds": seconds, "results": results},
                handle, indent=1,
            )
            handle.write("\n")
        manifest.write_benchmark_json(os.path.join(ROOT, "BENCHMARK.json"))
    print(f"total wall time of all runs: {time.perf_counter() - started:.1f} s")
    return results


def check_repeat(seed: int, seconds: float) -> int:
    """Run the set twice on this checkout; non-zero when the two disagree.

    A repeatability test, so it is two-sided: a second set that reads 30 %
    better shows the same run-to-run spread as one that reads 30 % worse.
    """
    first = full_set(seed, seconds, False, write=False)
    second = full_set(seed, seconds, False, write=False)
    breaches = 0
    print(f"{'workload':<20} {'metric':<24} {'first':>12} {'second':>12} "
          f"{'ratio':>8} {'bound':>6}")
    for name in first:
        one = first[name]["end_to_end"]
        two = second[name]["end_to_end"]
        for metric, (_, _, bound) in manifest.END_TO_END.items():
            a = one["metrics"][metric]["value"]
            b = two["metrics"][metric]["value"]
            ratio = b / a
            breach = max(ratio, 1.0 / ratio) - 1.0 > bound
            breaches += breach
            print(f"{name:<20} {metric:<24} {a:>12.5g} {b:>12.5g} "
                  f"{ratio:>8.3f} {bound:>6g}{'  BREACH' if breach else ''}")
        for run in (one, two):
            if run["failed"] or not run["correct"]:
                breaches += 1
                print(f"{name:<20} failed {run['failed']} of {run['attempted']}")
    return 1 if breaches else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ladder", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=manifest.workload_names())
    parser.add_argument("--seed", type=int, default=manifest.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from manifest.py and exit")
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < manifest.MIN_SECONDS:
        parser.error(
            f"--seconds must be at least {manifest.MIN_SECONDS:g}: below it a "
            "window of the 1000/s phase holds too few arrivals for a median"
        )

    if args.setup_probe:
        from benchmarks.ladder import des

        des.setup_probe(args.setup_probe, args.seed)
        return 0
    if args.write_manifest:
        manifest.write_benchmark_json(os.path.join(ROOT, "BENCHMARK.json"))
        return 0
    if args.check_repeat:
        return check_repeat(args.seed, args.seconds)
    if args.workload is None:
        results = full_set(args.seed, args.seconds, bool(args.trace))
        bad = any(
            result["failed"] or not result["correct"]
            for runs in results.values() for result in runs.values()
        )
        return 1 if bad else 0

    started = time.perf_counter()
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    print(f"wall time of this run: {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0
