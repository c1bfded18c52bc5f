"""CI perf-smoke gate: fail on ingest-throughput / refresh / cold-query regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --json out/
    PYTHONPATH=src python benchmarks/check_regression.py \
        --current out/BENCH_service_throughput.json \
        [--baseline benchmarks/baselines/BENCH_service_throughput.json] \
        [--storage-current out/BENCH_storage.json] \
        [--storage-baseline benchmarks/baselines/BENCH_storage.json] \
        [--parallel-current out/BENCH_parallel.json] \
        [--parallel-baseline benchmarks/baselines/BENCH_parallel.json] \
        [--concurrency-current out/BENCH_concurrency.json] \
        [--concurrency-baseline benchmarks/baselines/BENCH_concurrency.json] \
        [--faults-current out/BENCH_faults.json] \
        [--min-scaling 2.0] [--max-regression 0.25] [--min-fault-ratio 0.98] \
        [--concurrency-min-improvement 2.0] [--subscription-max-overhead 1.5]

Compares the current run's ``ingest_batch`` records/s and merged ``refresh``
time per shard count against the committed baseline and exits non-zero if
any point regresses by more than ``--max-regression`` (default 25%).  With ``--storage-current``,
additionally gates the tiered-storage benchmark's cold-window query rate
(deep ``window_isbs`` calls that fault pages back from disk, per bound)
the same way.  With ``--parallel-current``, gates the
process-parallel bench twice: normalized throughput per (backend,
workers) point against the committed baseline, and — on runners with at
least 4 usable cores — the 4-worker process ingest rate against
``--min-scaling`` times the same run's single-process rate.  With
``--concurrency-current``, gates concurrent-serving p99 query latency
against the committed *pre-concurrency* anchor: cached inproc/4 queries
must stay at least ``--concurrency-min-improvement`` times better than
the anchor (the lock-free hit path is the point), every other point must
not slip past ``--concurrency-max-regression``; additionally the same
document's with-subscriptions ingest p99 must stay within
``--subscription-max-overhead`` of the plain point's (self-baselined —
the seal-driven push dispatcher must stay off the seal path).

Hardware normalization: raw records/s are incomparable across machines, so
both documents carry a ``machine_score`` (a fixed CPU mini-workload timed at
bench time — see :func:`repro.bench.jsonout.machine_score`).  The gate
compares *normalized* throughput, ``records_per_s / machine_score``, which
cancels the runner-speed factor to first order.  The margin is deliberately
generous; this is a smoke gate against large regressions (a kernel fast path
silently falling back to the scalar loop), not a microbenchmark tribunal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_DEFAULT_BASELINE = (
    Path(__file__).parent / "baselines" / "BENCH_service_throughput.json"
)
_DEFAULT_STORAGE_BASELINE = (
    Path(__file__).parent / "baselines" / "BENCH_storage.json"
)
_DEFAULT_PARALLEL_BASELINE = (
    Path(__file__).parent / "baselines" / "BENCH_parallel.json"
)
_DEFAULT_CONCURRENCY_BASELINE = (
    Path(__file__).parent / "baselines" / "BENCH_concurrency.json"
)


def _service_points(document: dict) -> dict[tuple[str, int], float]:
    """``{(op, shards): rate}`` for the gated service entries of a document.

    ``ingest_batch`` rows carry records/s; ``refresh`` (the cubing plan
    held) and ``refresh_cold`` (the plan rebuilt after a birth) rows carry
    the wall time of one merged recube (what the first pull and every
    pushed update after a seal wait for), gated as the rate ``1 / wall_s``
    so that one floor serves all three.
    """
    out: dict[tuple[str, int], float] = {}
    for entry in document.get("entries", []):
        op = entry.get("op")
        if op == "ingest_batch" and entry.get("records_per_s"):
            out[(op, int(entry["shards"]))] = float(entry["records_per_s"])
        elif op in ("refresh", "refresh_cold") and entry.get("wall_s"):
            out[(op, int(entry["shards"]))] = 1.0 / float(entry["wall_s"])
    return out


def compare(
    baseline: dict, current: dict, max_regression: float
) -> list[str]:
    """Human-readable verdict lines; lines starting with FAIL gate the job."""
    base_points = _service_points(baseline)
    cur_points = _service_points(current)
    for op in ("ingest_batch", "refresh"):
        if not any(key[0] == op for key in base_points):
            return [f"FAIL baseline document has no {op} entries"]
        if not any(key[0] == op for key in cur_points):
            return [f"FAIL current document has no {op} entries"]
    base_score = float(baseline.get("machine_score") or 0.0)
    cur_score = float(current.get("machine_score") or 0.0)
    if base_score <= 0.0 or cur_score <= 0.0:
        return ["FAIL machine_score missing; cannot normalize throughput"]
    lines = [
        f"machine_score: baseline {base_score:.2f}, current {cur_score:.2f}"
    ]
    floor = 1.0 - max_regression
    for (op, shards), base_rate in sorted(base_points.items()):
        cur_rate = cur_points.get((op, shards))
        if cur_rate is None:
            lines.append(f"FAIL {op} shards={shards}: missing from current run")
            continue
        ratio = (cur_rate / cur_score) / (base_rate / base_score)
        verdict = "PASS" if ratio >= floor else "FAIL"
        measured = (
            f"{cur_rate:,.0f} rec/s"
            if op == "ingest_batch"
            else f"{1e3 / cur_rate:.1f} ms"
        )
        lines.append(
            f"{verdict} {op} shards={shards}: {measured} "
            f"(normalized {ratio:.2f}x of baseline; floor {floor:.2f}x)"
        )
    return lines


def _cold_points(document: dict) -> dict[str, float]:
    """``{"backend/bound": queries_per_s}`` for the cold-window entries."""
    out: dict[str, float] = {}
    for entry in document.get("entries", []):
        if entry.get("op") == "cold_window" and entry.get("queries_per_s"):
            key = f"{entry.get('backend')}/{entry.get('bound')}"
            out[key] = float(entry["queries_per_s"])
    return out


def compare_storage(
    baseline: dict, current: dict, max_regression: float
) -> list[str]:
    """Cold-window latency verdicts, same normalization as :func:`compare`."""
    base_points = _cold_points(baseline)
    cur_points = _cold_points(current)
    if not base_points:
        return ["FAIL storage baseline has no cold_window entries"]
    if not cur_points:
        return ["FAIL current storage document has no cold_window entries"]
    base_score = float(baseline.get("machine_score") or 0.0)
    cur_score = float(current.get("machine_score") or 0.0)
    if base_score <= 0.0 or cur_score <= 0.0:
        return ["FAIL machine_score missing; cannot normalize latency"]
    lines = [
        f"machine_score: baseline {base_score:.2f}, current {cur_score:.2f}"
    ]
    floor = 1.0 - max_regression
    for key, base_qps in sorted(base_points.items()):
        cur_qps = cur_points.get(key)
        if cur_qps is None:
            lines.append(f"FAIL {key}: missing from current run")
            continue
        ratio = (cur_qps / cur_score) / (base_qps / base_score)
        verdict = "PASS" if ratio >= floor else "FAIL"
        lines.append(
            f"{verdict} {key}: {cur_qps:,.1f} cold queries/s "
            f"(normalized {ratio:.2f}x of baseline {base_qps:,.1f}; "
            f"floor {floor:.2f}x)"
        )
    return lines


def _parallel_points(document: dict) -> dict[tuple[str, int], float]:
    """``{(backend, workers): records_per_s}`` for the parallel bench."""
    out: dict[tuple[str, int], float] = {}
    for entry in document.get("entries", []):
        if entry.get("op") == "ingest_batch" and entry.get("records_per_s"):
            key = (str(entry.get("backend")), int(entry.get("workers", 0)))
            out[key] = float(entry["records_per_s"])
    return out


def compare_parallel(
    baseline: dict,
    current: dict,
    max_regression: float,
    min_scaling: float,
) -> list[str]:
    """Two gates on the process-parallel bench.

    1. *Scaling*: within the current run alone, 4-worker process ingest
       must clear ``min_scaling`` times the single-process rate — but
       only when the runner has at least 4 usable cores (the document's
       ``cpu_count``); a 1-core container cannot parallelize anything,
       so there the clause reports SKIP instead of lying either way.
    2. *Regression*: every (backend, workers) point is gated against the
       committed baseline, normalized by ``machine_score`` exactly like
       :func:`compare`.
    """
    cur_points = _parallel_points(current)
    base_points = _parallel_points(baseline)
    if not cur_points:
        return ["FAIL current parallel document has no ingest_batch entries"]
    lines: list[str] = []
    single = cur_points.get(("inproc", 1))
    four = cur_points.get(("process", 4))
    if single is None or four is None:
        lines.append(
            "FAIL scaling: need inproc/1 and process/4 points in the "
            "current run"
        )
    else:
        cores = int(current.get("cpu_count") or 0)
        scaling = four / single
        if cores >= 4:
            verdict = "PASS" if scaling >= min_scaling else "FAIL"
            lines.append(
                f"{verdict} scaling: process/4 at {scaling:.2f}x of "
                f"single-process (floor {min_scaling:.2f}x, "
                f"{cores} cores)"
            )
        else:
            lines.append(
                f"SKIP scaling gate: {cores} usable core(s) < 4, "
                f"measured {scaling:.2f}x (floor {min_scaling:.2f}x "
                "applies on 4+ core runners)"
            )
        recorded = current.get("scaling_gate")
        if recorded is not None:
            reason = current.get("scaling_gate_reason")
            lines.append(
                f"info bench recorded scaling_gate={recorded!r}"
                + (f" ({reason})" if reason else "")
            )
    if not base_points:
        lines.append("FAIL parallel baseline has no ingest_batch entries")
        return lines
    base_score = float(baseline.get("machine_score") or 0.0)
    cur_score = float(current.get("machine_score") or 0.0)
    if base_score <= 0.0 or cur_score <= 0.0:
        lines.append("FAIL machine_score missing; cannot normalize")
        return lines
    floor = 1.0 - max_regression
    for key, base_rps in sorted(base_points.items()):
        cur_rps = cur_points.get(key)
        name = f"{key[0]}/{key[1]}"
        if cur_rps is None:
            lines.append(f"FAIL {name}: missing from current run")
            continue
        ratio = (cur_rps / cur_score) / (base_rps / base_score)
        verdict = "PASS" if ratio >= floor else "FAIL"
        lines.append(
            f"{verdict} {name}: {cur_rps:,.0f} rec/s "
            f"(normalized {ratio:.2f}x of baseline {base_rps:,.0f}; "
            f"floor {floor:.2f}x)"
        )
    return lines


def _latency_points(document: dict) -> dict[tuple[str, int, str], float]:
    """``{(backend, shards, mode): p99_ms}`` for the concurrency bench."""
    out: dict[tuple[str, int, str], float] = {}
    for entry in document.get("entries", []):
        if entry.get("op") == "query_latency" and entry.get("p99_ms"):
            key = (
                str(entry.get("backend")),
                int(entry.get("shards", 0)),
                str(entry.get("mode")),
            )
            out[key] = float(entry["p99_ms"])
    return out


#: The concurrency tentpole's headline point: cached queries at 4 inproc
#: shards under concurrent ingest.  The committed baseline predates the
#: concurrent read path, so this point must stay *far* better than it,
#: not merely unregressed.
_CONCURRENCY_HEADLINE = ("inproc", 4, "cached")


def compare_concurrency(
    baseline: dict,
    current: dict,
    max_regression: float,
    min_improvement: float,
) -> list[str]:
    """Gate concurrent-serving p99 latency against the committed baseline.

    The baseline document was measured *before* the concurrent query
    path existed (global service lock, epoch-counter cache), and stays
    committed as a permanent anchor.  Clauses on machine-normalized p99
    (``p99_ms × machine_score`` — a faster machine runs the fixed
    mini-workload faster *and* serves faster, so the product cancels
    hardware to first order):

    1. the headline point — cached queries, 4 inproc shards, under
       concurrent ingest — must be at least ``min_improvement`` times
       better than the pre-change anchor (losing the lock-free hit path
       is the regression this whole gate exists to catch);
    2. every other *cached* point must not be worse than
       ``1 + max_regression`` times its anchor (latency is noisier than
       throughput, so the margin is wider than the ingest gates');
    3. *uncached* points are reported but not gated: the anchor measured
       them under mutual exclusion (once a query held the big lock it
       ran alone), so post-change numbers — true concurrency with
       in-flight ingest — measure a different quantity.  A missing
       uncached point still fails, because zero samples is how reader
       starvation presents.
    """
    base_points = _latency_points(baseline)
    cur_points = _latency_points(current)
    if not base_points:
        return ["FAIL concurrency baseline has no query_latency entries"]
    if not cur_points:
        return ["FAIL current concurrency document has no query_latency entries"]
    base_score = float(baseline.get("machine_score") or 0.0)
    cur_score = float(current.get("machine_score") or 0.0)
    if base_score <= 0.0 or cur_score <= 0.0:
        return ["FAIL machine_score missing; cannot normalize latency"]
    lines = [
        f"machine_score: baseline {base_score:.2f}, current {cur_score:.2f}"
    ]
    ceiling = 1.0 + max_regression
    for key, base_p99 in sorted(base_points.items()):
        cur_p99 = cur_points.get(key)
        name = f"{key[0]}/{key[1]}/{key[2]}"
        if cur_p99 is None:
            lines.append(f"FAIL {name}: missing from current run")
            continue
        # Normalized improvement factor: >1 means faster than the anchor.
        improvement = (base_p99 * base_score) / (cur_p99 * cur_score)
        if key == _CONCURRENCY_HEADLINE:
            verdict = "PASS" if improvement >= min_improvement else "FAIL"
            lines.append(
                f"{verdict} {name}: p99 {cur_p99:.3f} ms, "
                f"{improvement:.1f}x better than the pre-concurrency "
                f"anchor {base_p99:.3f} ms (floor {min_improvement:.1f}x)"
            )
        elif key[2] == "cached":
            verdict = "PASS" if improvement >= 1.0 / ceiling else "FAIL"
            lines.append(
                f"{verdict} {name}: p99 {cur_p99:.3f} ms "
                f"(normalized {improvement:.2f}x of anchor "
                f"{base_p99:.3f} ms; ceiling {ceiling:.2f}x slower)"
            )
        else:
            lines.append(
                f"info {name}: p99 {cur_p99:.3f} ms (anchor measured "
                f"{base_p99:.3f} ms under mutual exclusion; not gated)"
            )
    return lines


def _ingest_latency_points(document: dict) -> dict[tuple[str, int, int], float]:
    """``{(backend, shards, subscriptions): p99_ms}`` ingest latency."""
    out: dict[tuple[str, int, int], float] = {}
    for entry in document.get("entries", []):
        if entry.get("op") == "ingest_latency" and entry.get("p99_ms"):
            key = (
                str(entry.get("backend")),
                int(entry.get("shards", 0)),
                int(entry.get("subscriptions", 0)),
            )
            out[key] = float(entry["p99_ms"])
    return out


def check_subscription_overhead(
    current: dict, max_overhead: float
) -> list[str]:
    """Gate the continuous-query push path's tax on ingest.

    Self-contained (no committed baseline): the concurrency bench
    measures ingest p99 with and without active subscriptions in the
    *same* run on the *same* (backend, shards) point, so the ratio needs
    no hardware normalization.  FAIL when the with-subscriptions point's
    ingest p99 exceeds ``max_overhead`` times the plain point's — the
    seal-driven dispatcher has leaked into the seal critical section (it
    must only set a flag and wake a thread there).
    """
    points = _ingest_latency_points(current)
    sub_points = sorted(key for key in points if key[2] > 0)
    if not sub_points:
        return [
            "FAIL concurrency document has no with-subscriptions "
            "ingest_latency entries"
        ]
    lines: list[str] = []
    for key in sub_points:
        backend, shards, subs = key
        base_p99 = points.get((backend, shards, 0))
        name = f"{backend}/{shards}/{subs} subscriptions"
        if base_p99 is None:
            lines.append(
                f"FAIL {name}: no subscription-free ingest_latency "
                "point to compare against"
            )
            continue
        ratio = points[key] / base_p99
        verdict = "PASS" if ratio <= max_overhead else "FAIL"
        lines.append(
            f"{verdict} {name}: ingest p99 {points[key]:.3f} ms, "
            f"{ratio:.2f}x of the {base_p99:.3f} ms plain point "
            f"(ceiling {max_overhead:.2f}x)"
        )
    return lines


def check_faults(current: dict, min_ratio: float) -> list[str]:
    """Gate the fault-seam overhead bench: disarmed guards stay cheap.

    Self-contained (no committed baseline): ``bench_faults.py`` measures
    the stubbed-guards and disarmed-guards ingest rates in the *same*
    run on the *same* machine, so the ratio needs no hardware
    normalization.  FAIL when the disarmed path keeps less than
    ``min_ratio`` of stubbed throughput — the injection seam has grown a
    real cost on the hot path.
    """
    by_mode = {
        str(entry.get("mode")): float(entry.get("records_per_s") or 0.0)
        for entry in current.get("entries", [])
        if entry.get("op") == "ingest_batch"
    }
    stubbed = by_mode.get("stubbed")
    disarmed = by_mode.get("disarmed")
    if not stubbed or not disarmed:
        return [
            "FAIL faults document needs stubbed and disarmed "
            "ingest_batch entries"
        ]
    ratio = disarmed / stubbed
    verdict = "PASS" if ratio >= min_ratio else "FAIL"
    lines = [
        f"{verdict} seam overhead: disarmed at {ratio:.3f}x of stubbed "
        f"ingest throughput (floor {min_ratio:.2f}x)"
    ]
    armed = by_mode.get("armed-quiet")
    if armed:
        lines.append(
            f"info armed-quiet: {armed / stubbed:.3f}x of stubbed "
            "(not gated; the price of running under a plan)"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, default=_DEFAULT_BASELINE,
        help="committed baseline JSON (default: benchmarks/baselines/)",
    )
    parser.add_argument(
        "--current", type=Path, required=True,
        help="freshly generated BENCH_service_throughput.json",
    )
    parser.add_argument(
        "--storage-baseline", type=Path, default=_DEFAULT_STORAGE_BASELINE,
        help="committed BENCH_storage.json baseline",
    )
    parser.add_argument(
        "--storage-current", type=Path, default=None,
        help="freshly generated BENCH_storage.json (enables the cold-query "
        "latency gate)",
    )
    parser.add_argument(
        "--parallel-baseline", type=Path, default=_DEFAULT_PARALLEL_BASELINE,
        help="committed BENCH_parallel.json baseline",
    )
    parser.add_argument(
        "--parallel-current", type=Path, default=None,
        help="freshly generated BENCH_parallel.json (enables the process-"
        "scaling gate)",
    )
    parser.add_argument(
        "--concurrency-baseline", type=Path,
        default=_DEFAULT_CONCURRENCY_BASELINE,
        help="committed BENCH_concurrency.json anchor (measured before the "
        "concurrent query path; kept as a permanent improvement floor)",
    )
    parser.add_argument(
        "--concurrency-current", type=Path, default=None,
        help="freshly generated BENCH_concurrency.json (enables the "
        "concurrent-serving p99 latency gate)",
    )
    parser.add_argument(
        "--concurrency-min-improvement", type=float, default=2.0,
        help="required normalized p99 improvement of cached inproc/4 "
        "queries over the pre-concurrency anchor (default 2.0)",
    )
    parser.add_argument(
        "--concurrency-max-regression", type=float, default=0.5,
        help="allowed fractional normalized p99 slowdown for the other "
        "concurrency points (default 0.5 — latency is noisy)",
    )
    parser.add_argument(
        "--subscription-max-overhead", type=float, default=1.5,
        help="allowed with-subscriptions over plain ingest p99 ratio in "
        "the concurrency bench (default 1.5; self-baselined, same run)",
    )
    parser.add_argument(
        "--faults-current", type=Path, default=None,
        help="freshly generated BENCH_faults.json (enables the fault-seam "
        "overhead gate; self-baselined, no committed document needed)",
    )
    parser.add_argument(
        "--min-fault-ratio", type=float, default=0.98,
        help="required disarmed/stubbed ingest throughput ratio for the "
        "fault-injection seam (default 0.98 — a <2%% cost)",
    )
    parser.add_argument(
        "--min-scaling", type=float, default=2.0,
        help="required process/4 over single-process ingest ratio on "
        "4+ core runners (default 2.0)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional drop in normalized records/s and refreshes/s "
        "(default 0.25)",
    )
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    lines = compare(baseline, current, args.max_regression)
    failed = any(line.startswith("FAIL") for line in lines)
    print("perf smoke: ingest throughput and refresh time vs committed baseline")
    for line in lines:
        print(" ", line)
    if args.storage_current is not None:
        storage_lines = compare_storage(
            json.loads(args.storage_baseline.read_text()),
            json.loads(args.storage_current.read_text()),
            args.max_regression,
        )
        failed |= any(line.startswith("FAIL") for line in storage_lines)
        print("perf smoke: cold-window query rate vs committed baseline")
        for line in storage_lines:
            print(" ", line)
    if args.parallel_current is not None:
        parallel_lines = compare_parallel(
            json.loads(args.parallel_baseline.read_text()),
            json.loads(args.parallel_current.read_text()),
            args.max_regression,
            args.min_scaling,
        )
        failed |= any(line.startswith("FAIL") for line in parallel_lines)
        print("perf smoke: process-parallel ingest scaling")
        for line in parallel_lines:
            print(" ", line)
    if args.concurrency_current is not None:
        concurrency_lines = compare_concurrency(
            json.loads(args.concurrency_baseline.read_text()),
            json.loads(args.concurrency_current.read_text()),
            args.concurrency_max_regression,
            args.concurrency_min_improvement,
        )
        failed |= any(line.startswith("FAIL") for line in concurrency_lines)
        print("perf smoke: concurrent-serving query latency")
        for line in concurrency_lines:
            print(" ", line)
        subscription_lines = check_subscription_overhead(
            json.loads(args.concurrency_current.read_text()),
            args.subscription_max_overhead,
        )
        failed |= any(line.startswith("FAIL") for line in subscription_lines)
        print("perf smoke: continuous-query subscription ingest overhead")
        for line in subscription_lines:
            print(" ", line)
    if args.faults_current is not None:
        fault_lines = check_faults(
            json.loads(args.faults_current.read_text()),
            args.min_fault_ratio,
        )
        failed |= any(line.startswith("FAIL") for line in fault_lines)
        print("perf smoke: fault-injection seam overhead")
        for line in fault_lines:
            print(" ", line)
    print("perf smoke:", "FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
