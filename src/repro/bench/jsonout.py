"""Machine-readable benchmark output: the ``BENCH_*.json`` files.

Every benchmark entry point accepts ``--json PATH`` (or the
``REPRO_BENCH_JSON`` environment variable; the flag wins) and writes its
measurements as one JSON document per run, so the perf trajectory of the
repo is a diffable artifact instead of a scrollback table.  ``PATH`` may be
a directory, in which case the file lands there under the bench's canonical
name (``BENCH_<name>.json``).

Document shape::

    {
      "bench": "service_throughput",
      "scale": "small",
      "created_utc": "2026-07-30T12:00:00+00:00",
      "machine_score": 41.7,          # relative machine speed, see below
      "peak_rss_mb": 123.4,           # process peak RSS at write time
      "entries": [
        {"op": "ingest_batch", "scale": "small", "wall_s": 0.061,
         "records_per_s": 87880.0, "shards": 1, ...},
        ...
      ]
    }

``machine_score`` is the result of a tiny fixed CPU workload timed at write
time (bigger = faster machine).  The CI regression gate divides records/s by
it before comparing against the committed baseline, so a slower runner does
not read as a perf regression (and a faster one does not mask a real one).
"""

from __future__ import annotations

import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "json_path_from_args",
    "machine_score",
    "peak_rss_mb",
    "write_bench_json",
]

_ENV_VAR = "REPRO_BENCH_JSON"


def json_path_from_args(
    argv: Sequence[str] | None = None,
) -> str | None:
    """Resolve the ``--json PATH`` flag / ``REPRO_BENCH_JSON`` env variable.

    Returns ``None`` when neither is present (the bench prints tables only).
    The flag is deliberately parsed by hand so every per-bench script keeps
    its zero-dependency ``python benchmarks/bench_*.py`` invocation.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    for i, arg in enumerate(args):
        if arg == "--json":
            if i + 1 >= len(args):
                raise SystemExit("--json requires a PATH argument")
            return args[i + 1]
        if arg.startswith("--json="):
            return arg.split("=", 1)[1]
    return os.environ.get(_ENV_VAR) or None


def machine_score(budget_s: float = 0.1) -> float:
    """A relative speed score for the current machine/interpreter.

    Times a fixed mixed workload — a pure-Python inner loop plus a small
    numpy vector reduction — for ~``budget_s``
    seconds and returns iterations per microsecond.  The mix mirrors the
    gated ingest path (Python grouping/dispatch plus numpy kernels), so a
    runner that is fast at one but slow at the other does not skew the
    normalization.  Only *ratios* of scores are meaningful.
    """
    vector = np.arange(20_000, dtype=np.float64)
    chunk = 100_000
    total = 0
    t0 = time.perf_counter()
    while True:
        acc = 0
        for i in range(chunk):
            acc += i & 7
        for _ in range(10):
            float(np.add.reduce(vector * 1.0000001))
        total += chunk
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return total / elapsed / 1e6


def peak_rss_mb() -> float | None:
    """Process peak RSS in megabytes, if the platform exposes it."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def write_bench_json(
    path: str | Path,
    bench: str,
    scale: str,
    entries: Sequence[Mapping[str, Any]],
    extra: Mapping[str, Any] | None = None,
) -> Path:
    """Write one benchmark run's JSON document; returns the final path."""
    target = Path(path)
    if target.is_dir() or str(path).endswith(os.sep):
        target = target / f"BENCH_{bench}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    document: dict[str, Any] = {
        "bench": bench,
        "scale": scale,
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine_score": round(machine_score(), 3),
        "peak_rss_mb": peak_rss_mb(),
        "entries": [dict(e) for e in entries],
    }
    if extra:
        document.update(extra)
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target
