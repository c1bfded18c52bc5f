#!/usr/bin/env python3
"""The e2e ledger: one command for every end-to-end and per-layer number.

Two ways to run it (from the repository root)::

    # everything, human-readable, optionally written out:
    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--json PATH]
                                 [--trace-out DIR] [--repeat 2 --check-agreement]

    # one pass of one workload, last stdout line = one JSON object
    # (the form BENCHMARK.json's driver uses):
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` is the end-to-end pass (a live ``serve`` subprocess under
socket load, tracing off); ``--trace 1`` is the per-layer pass (count-bound
in-process replay with spans).  Without ``--trace`` both run.  Exit status
is non-zero on any failed request, oracle mismatch or disagreement.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC_DIR = ROOT / "src"
if not (SRC_DIR / "repro").is_dir():
    sys.exit(f"e2e ledger: no program to measure ({SRC_DIR / 'repro'} is missing)")
sys.path[:0] = [str(HERE), str(SRC_DIR)]

from repro.bench.jsonout import machine_score  # noqa: E402

from live import SETUPS, run_live  # noqa: E402
from metrics import END_TO_END, PER_LAYER, driver_end_to_end  # noqa: E402
from replay import run_replay_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

QUICK_SECONDS = 2.0


def _context() -> dict[str, Any]:
    try:  # the program runs on scalar fallbacks without it, and so does this
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine_score": round(machine_score(), 3),
    }


def _fmt(value: float | None) -> str:
    if value is None:
        return "null"
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.0f}"


def _print_live(result: dict[str, Any]) -> None:
    print(f"\n== {result['workload']} · end to end (seed {result['seed']}, {result['seconds']:g} s "
          "load window, tracing off)")
    for metric in END_TO_END:
        summary = result["metrics"][metric.name]
        if summary is None:
            print(f"  {metric.name:<22} {'null':>12} {metric.unit}")
            continue
        detail = f"n={summary['n']}"
        if summary.get("tail"):
            detail += f"  p{summary['tail']['p']:g}={_fmt(summary['tail']['value'])}"
        print(f"  {metric.name:<22} {_fmt(summary['p50']):>12} {metric.unit:<10} {detail}")
    gen = result["generator"]
    print(f"  generator: ingest lateness {gen['ingest_lateness']}, reader lateness "
          f"{gen['reader_lateness']}, backlog at end {gen['backlog_at_end']}, unsent {gen['unsent']}")
    print(f"  counts: {result['counts']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem[:300]}")


def _print_layers(result: dict[str, Any]) -> None:
    print(f"\n== {result['workload']} · per layer (traced replay, seed {result['seed']}, "
          f"{result['spans']} spans)")
    wall_ms = result["replay_wall_s"]["traced"] * 1000.0
    for metric in PER_LAYER:
        value = result["values"][metric.name]
        share = ""
        if metric.unit == "ms":
            share = "per call" if metric.per_call else f"{100 * value / wall_ms:5.1f}% of replay wall"
        print(f"  {metric.name:<30} {_fmt(value):>12} {metric.unit:<6} {share}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem[:300]}")


def _driver_line(result: dict[str, Any], traced: bool) -> str:
    """The contract's result object for one pass."""
    if traced:
        values = {m.name: (result["values"][m.name], m.unit) for m in PER_LAYER}
        attempted, failed = result["checks"], len(result["problems"])
    else:
        values = {}
        for m in driver_end_to_end():
            summary = result["metrics"][m.name]
            if summary is None:
                raise SystemExit(f"{result['workload']}: no samples for {m.name}")
            values[m.name] = (summary["p50"], m.unit)
        attempted, failed = result["attempted"], result["failed"]
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        }
    )


def _agreement(runs: list[dict[str, Any]]) -> list[str]:
    """Compare every later repeat with the first, (metric, workload) by
    (metric, workload), wherever the metric exists and carries a bound.
    Prints both values and their relative gap; returns the pairs whose gap
    exceeds the metric's bound."""
    broken = []
    print("\n== agreement: first repeat against each later one (relative gap vs bound)")
    for name in runs[0]["workloads"]:
        for metric in END_TO_END:
            if metric.bound is None or name not in metric.workloads:
                continue
            first, *later = (
                run["workloads"][name]["end_to_end"]["metrics"][metric.name]["p50"] for run in runs
            )
            for value in later:
                gap = abs(value - first) / abs(first) if first else abs(value)
                verdict = "ok" if gap <= metric.bound else "EXCEEDS"
                print(f"  {name:<16} {metric.name:<22} {_fmt(first):>12} {_fmt(value):>12} "
                      f"gap {gap:6.3f} bound {metric.bound:5.2f} {verdict}")
                if gap > metric.bound:
                    broken.append(f"{name}/{metric.name}")
    return broken


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="load window per workload (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one pass only and end with the driver's JSON line")
    parser.add_argument("--json", metavar="PATH", help="write the full result document")
    parser.add_argument("--trace-out", metavar="DIR", help="write spans as JSONL, one file per workload")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check-agreement", action="store_true",
                        help="with --repeat 2: fail if the two runs differ by more than a metric's\n"
                        "bound on any (metric, workload) pair")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s window, one set-up: a smoke run, marked "
                        "non-comparable")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.check_agreement and args.repeat < 2:
        parser.error("--check-agreement needs --repeat >= 2")
    if args.seconds is not None:
        seconds = args.seconds
    elif args.quick:
        seconds = QUICK_SECONDS
    else:
        seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace_out = Path(args.trace_out).resolve() if args.trace_out else None
    workdir = ROOT / ".bench_e2e" / f"run-{os.getpid()}"
    started = time.perf_counter()
    failed = 0
    runs: list[dict[str, Any]] = []
    last: dict[str, Any] = {}
    try:
        for repeat in range(args.repeat):
            run: dict[str, Any] = {"workloads": {}}
            for name in names:
                workload = WORKLOADS[name]
                entry: dict[str, Any] = {"why": workload.why}
                if args.trace in (None, 0):
                    last = entry["end_to_end"] = run_live(
                        workload, args.seed, seconds, workdir / name,
                        setups=1 if args.quick else SETUPS,
                    )
                    failed += last["failed"]
                    if args.trace is None:
                        _print_live(last)
                if args.trace in (None, 1):
                    last = entry["per_layer"] = run_replay_pass(
                        workload, args.seed, workdir / f"{name}-replay", trace_out
                    )
                    failed += len(last["problems"])
                    if args.trace is None:
                        _print_layers(last)
                run["workloads"][name] = entry
            runs.append(run)
    except BaseException:
        print(f"e2e ledger: server logs kept in {workdir}", file=sys.stderr)
        raise
    shutil.rmtree(workdir, ignore_errors=True)
    if not any(workdir.parent.iterdir()):
        workdir.parent.rmdir()

    broken = _agreement(runs) if args.check_agreement else []
    if args.json:
        document = {
            "bench": "e2e",
            "comparable": not args.quick,
            "seed": args.seed,
            "seconds": seconds,
            "context": _context(),
            "total_wall_s": time.perf_counter() - started,
            "repeats": runs,
        }
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n")
    if args.trace is None:
        print(f"\ntotal wall {time.perf_counter() - started:.1f} s; failed {failed}; "
              f"disagreements {broken or 'none'}")
    else:
        print(_driver_line(last, traced=bool(args.trace)))
    return 1 if failed or broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
