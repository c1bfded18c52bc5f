"""``python -m repro`` — demo and service entry points.

``python -m repro`` (or ``python -m repro demo``) runs the paper's pipeline
on a small synthetic dataset and prints the result: the exact ISB aggregation
check (Fig 2/3 captions), the tilt-frame savings (Example 3), and a cubing
run with its exception watch list.  Useful as a smoke test of an
installation.

``python -m repro serve --shards N --port P`` starts the sharded stream-cube
HTTP service over a fanout schema; ``POST /query`` accepts single query
specs or ``{"queries": [...]}`` batches (see :mod:`repro.service.http` for
the endpoint reference and :mod:`repro.query.spec` for the spec format).
With ``--snapshot-dir DIR`` the service journals ingestion to a WAL and
writes restorable snapshots (on demand, every K quarters, and on graceful
shutdown); ``--restore DIR`` resumes from such a directory, optionally
resharding via ``--shards``.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro import (
    GlobalSlopeThreshold,
    ISB,
    calibrate_threshold,
    example3_savings,
    full_materialization,
    generate_dataset,
    intermediate_slopes,
    merge_standard,
    merge_time,
    mo_cubing,
    popular_path_cubing,
)


def demo() -> int:
    print("repro — regression cubes for time-series data streams")
    print("(Chen, Dong, Han, Wah, Wang — VLDB 2002)\n")

    # The exact numbers printed in the paper's Fig 2 / Fig 3 captions.
    fig2 = merge_standard(
        [ISB(0, 19, 0.540995, 0.0318379), ISB(0, 19, 0.294875, 0.0493375)]
    )
    fig3 = merge_time(
        [ISB(0, 9, 0.582995, 0.0240189), ISB(10, 19, 0.459046, 0.047474)]
    )
    ok2 = math.isclose(fig2.base, 0.83587, abs_tol=5e-6)
    ok3 = math.isclose(fig3.slope, 0.0431806, abs_tol=5e-7)
    print(f"Theorem 3.2 vs Fig 2 caption: {'OK' if ok2 else 'MISMATCH'}")
    print(f"Theorem 3.3 vs Fig 3 caption: {'OK' if ok3 else 'MISMATCH'}")

    s = example3_savings()
    print(
        f"Tilt frame (Example 3): {s.tilt_units} slots for a year vs "
        f"{s.full_units} ({s.ratio:.0f}x saving)\n"
    )

    data = generate_dataset("D3L3C10T2K", seed=1)
    tau = calibrate_threshold(
        intermediate_slopes(full_materialization(data.layers, data.cells)),
        0.01,
    )
    policy = GlobalSlopeThreshold(tau)
    mo = mo_cubing(data.layers, data.cells, policy)
    pp = popular_path_cubing(data.layers, data.cells, policy)
    print(mo.describe())
    print()
    print(pp.describe())
    print(
        f"\nfootnote 7: popular-path retained "
        f"{pp.total_retained_exceptions} <= {mo.total_retained_exceptions} "
        "exception cells"
    )

    # The declarative query API: one batch, one engine, typed results.
    from repro.query import Q, RegressionCubeView, execute_batch

    view = RegressionCubeView(mo)
    items = execute_batch(
        view,
        Q.batch(Q.watch_list(), Q.top_slopes(data.layers.o_coord, k=3)),
    )
    watch, top = (item.result.value for item in items)
    print(f"\nquery batch: watch list holds {len(watch)} o-layer exceptions")
    for values, isb in top:
        print(f"  steepest cells: {values} slope={isb.slope:+.4f}")
    return 0 if (ok2 and ok3) else 1


#: The integer members of a manifest's recorded ``app`` config, with the
#: least value the schema, the policy and the router accept.
_APP_COUNTS = {"dims": 1, "levels": 2, "fanout": 2, "window": 1}


def _recorded_app(manifest: dict) -> dict:
    """The serving config a snapshot recorded under ``"app"``, each member
    checked: a malformed one is a :class:`CodecError`, as is every other
    malformed manifest field, rather than whatever the schema raises."""
    from repro.errors import CodecError
    from repro.service.sharding import _count

    recorded = dict(manifest.get("app") or {})
    for name, minimum in _APP_COUNTS.items():
        if name in recorded:
            _count(recorded, name, minimum=minimum)
    threshold = recorded.get("threshold", 0.0)
    if (
        isinstance(threshold, bool)
        or not isinstance(threshold, (int, float))
        or not math.isfinite(threshold)
        or threshold < 0
    ):
        raise CodecError(
            f"snapshot: manifest field 'threshold' is {threshold!r}, not a "
            "finite number >= 0"
        )
    return recorded


def build_service(args: argparse.Namespace):
    """A StreamCubeService for the CLI flags.

    Fresh start: a new cube from the schema flags.  ``--restore DIR``:
    rebuild the cube from the snapshot there (schema flags come from the
    manifest's recorded app config, so a restored service is identical to
    the one that wrote the snapshot), replay any WAL found alongside it,
    and — when ``--shards`` names a *different* count — reshard during the
    load.  ``--snapshot-dir DIR`` attaches a write-ahead log there and
    enables ``POST /admin/snapshot``, ``--snapshot-every-quarters K``, and
    the graceful-shutdown final snapshot.
    """
    from pathlib import Path

    from repro.service import QueryRouter, ShardedStreamCube, StreamCubeService
    from repro.storage import StorageConfig
    from repro.stream.generator import DatasetSpec
    from repro.stream.wal import QuarterWAL

    from repro.errors import ServiceError

    if args.hot_quarters is not None and not args.storage_dir:
        raise ServiceError("--hot-quarters needs --storage-dir")
    snapshot_dir = Path(args.snapshot_dir) if args.snapshot_dir else None
    if (
        snapshot_dir is not None
        and not args.restore
        and (snapshot_dir / "manifest.json").exists()
    ):
        # Refuse to bootstrap a fresh (empty) cube over an existing
        # snapshot — that would overwrite the manifest and discard the
        # previous run's state on the next compaction.
        raise ServiceError(
            f"{snapshot_dir} already holds a snapshot; start with "
            f"--restore {snapshot_dir} to resume it, or point "
            "--snapshot-dir somewhere else"
        )
    wal = (
        QuarterWAL(snapshot_dir / "wal.jsonl")
        if snapshot_dir is not None
        else None
    )
    if wal is not None and not args.restore and wal.last_seq > 0:
        # Same protection for a journal-only directory (a run that crashed
        # before its first snapshot): a fresh start would never replay
        # these entries and the first snapshot would compact them away.
        raise ServiceError(
            f"{wal.path} holds {wal.last_seq} unreplayed journal entries; "
            f"start with --restore {snapshot_dir} to recover them, or "
            "point --snapshot-dir somewhere else"
        )

    storage_cfg = (
        StorageConfig(
            root=Path(args.storage_dir),
            hot_quarters=(
                args.hot_quarters if args.hot_quarters is not None else 4
            ),
        )
        if args.storage_dir
        else None
    )

    app = {
        "dims": args.dims,
        "levels": args.levels,
        "fanout": args.fanout,
        "threshold": args.threshold,
        "window": args.window,
    }
    manifest = None
    restore_wal = Path(args.restore) / "wal.jsonl" if args.restore else None
    if args.restore:
        if (Path(args.restore) / "manifest.json").exists():
            manifest = ShardedStreamCube.read_manifest(args.restore)
            recorded = _recorded_app(manifest)
            if recorded:
                app.update(recorded)
                print(f"restoring with recorded app config: {recorded}")
        elif not (restore_wal and QuarterWAL.exists(restore_wal)):
            ShardedStreamCube.read_manifest(args.restore)  # raise the
            # usual "no manifest" CodecError
        # else: journal-only directory — the run crashed before its first
        # snapshot; rebuild an empty cube below and replay the whole WAL.
    layers = DatasetSpec(
        n_dims=app["dims"],
        n_levels=app["levels"],
        fanout=app["fanout"],
        n_tuples=1,  # build_layers only needs the schema shape
    ).build_layers()
    policy = GlobalSlopeThreshold(app["threshold"])

    if args.restore and manifest is not None:
        if manifest.get("storage") is not None and storage_cfg is None:
            raise ServiceError(
                "this snapshot was taken with tiered storage; pass "
                "--storage-dir pointing at its cold-store directory"
            )
        cube = ShardedStreamCube.restore(
            args.restore,
            layers,
            policy,
            n_shards=args.shards,  # None keeps the snapshot's count
            wal=wal,
            storage=storage_cfg,
            hot_quarters=args.hot_quarters,
        )
    else:  # fresh cube — also the base of a journal-only recovery
        cube = ShardedStreamCube(
            layers,
            policy,
            n_shards=args.shards if args.shards is not None else 4,
            ticks_per_quarter=args.ticks_per_quarter,
            wal=wal,
            storage=storage_cfg,
        )
    if args.restore:
        replayed = 0
        if restore_wal is not None and QuarterWAL.exists(restore_wal):
            after = manifest["wal_seq"] if manifest else 0
            if wal is not None and wal.path.resolve() == restore_wal.resolve():
                replayed = wal.replay(cube, after_seq=after)
            else:
                with QuarterWAL(restore_wal) as old:
                    replayed = old.replay(cube, after_seq=after)
        print(
            f"restored {cube.tracked_cells} cells on {cube.n_shards} shards "
            f"at quarter {cube.current_quarter} "
            f"({replayed} WAL entries replayed)"
        )
    router = QueryRouter(cube, window_quarters=app["window"])
    service = StreamCubeService(
        cube,
        router,
        snapshot_dir=snapshot_dir,
        snapshot_every_quarters=args.snapshot_every_quarters,
        app_config=app,
        subscription_queue=getattr(args, "subscription_queue", 16),
    )
    if snapshot_dir is not None:
        # Make the serving directory self-contained from the first moment:
        # a fresh start gets an (empty) restorable baseline so a crash
        # before the first periodic snapshot still recovers from WAL
        # replay, and a restore's possibly resharded/replayed state
        # becomes the new baseline with the WAL compacted to its tail.
        service.write_snapshot()
    return service


def serve_command(args: argparse.Namespace) -> int:
    from repro import faults
    from repro.errors import ReproError
    from repro.service import serve

    try:
        if getattr(args, "fault_plan", None):
            # Armed before the cube exists so every store/WAL opens under it.
            plan = faults.load_plan(args.fault_plan, args.fault_seed)
            faults.install(plan)
            print(
                f"fault injection armed: {args.fault_plan} "
                f"(seed {args.fault_seed}, {len(plan.rules)} rules)"
            )
        service = build_service(args)
        layers = service.cube.layers
        print(f"schema: {layers.describe()}")
        serve(
            service,
            host=args.host,
            port=args.port,
            request_threads=args.request_threads,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(
            f"error: cannot bind {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 2
    return 0


def soak_command(args: argparse.Namespace) -> int:
    from repro.verify.soak import main as soak_main

    return soak_main(args)


def add_serve_arguments(serve_p: argparse.ArgumentParser) -> None:
    """Add the ``serve`` flags; :func:`build_service` reads what they parse."""
    serve_p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="engine shards (default 4; with --restore, defaults to the "
        "snapshot's count, and a different value reshards on load)",
    )
    serve_p.add_argument(
        "--request-threads",
        type=int,
        default=8,
        metavar="N",
        help="HTTP request pool size: up to N requests execute "
        "concurrently (queries and probes in parallel, mutators "
        "serialized among themselves; default 8)",
    )
    serve_p.add_argument(
        "--subscription-queue",
        type=int,
        default=16,
        metavar="N",
        help="per-subscription pending-update bound for POST /subscribe "
        "continuous queries; beyond it the oldest update is dropped and "
        "counted (default 16)",
    )
    serve_p.add_argument(
        "--port", type=int, default=8000, help="TCP port (default 8000)"
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_p.add_argument(
        "--dims", type=int, default=3, help="standard dimensions (default 3)"
    )
    serve_p.add_argument(
        "--levels",
        type=int,
        default=3,
        help="hierarchy levels m-layer..o-layer inclusive (default 3)",
    )
    serve_p.add_argument(
        "--fanout", type=int, default=10, help="hierarchy fanout (default 10)"
    )
    serve_p.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="global exception slope threshold (default 0.05)",
    )
    serve_p.add_argument(
        "--ticks-per-quarter",
        type=int,
        default=15,
        help="primitive ticks per quarter slot (default 15)",
    )
    serve_p.add_argument(
        "--window",
        type=int,
        default=4,
        help="default analysis window in quarters (default 4)",
    )
    serve_p.add_argument(
        "--restore",
        metavar="DIR",
        default=None,
        help="restore the cube from a snapshot directory (replaying any "
        "WAL found there) instead of starting empty",
    )
    serve_p.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        default=None,
        help="directory for snapshots and the write-ahead log; enables "
        "POST /admin/snapshot and the graceful-shutdown final snapshot",
    )
    serve_p.add_argument(
        "--snapshot-every-quarters",
        type=int,
        default=0,
        metavar="K",
        help="also snapshot automatically every K sealed quarters "
        "(default 0: only on shutdown and POST /admin/snapshot)",
    )
    serve_p.add_argument(
        "--storage-dir",
        metavar="DIR",
        default=None,
        help="tiered-storage root: sealed history past the hot horizon "
        "spills to per-shard cold stores here, and deep-history queries "
        "fault it back transparently (resident memory stays bounded by "
        "the hot set)",
    )
    # Read by nothing: kept so existing command lines still parse.
    serve_p.add_argument(
        "--storage-backend", choices=("file",), help=argparse.SUPPRESS
    )
    serve_p.add_argument(
        "--hot-quarters",
        type=int,
        default=None,
        metavar="K",
        help="quarters of sealed history kept resident before spilling "
        "(default 4; with --restore, defaults to the snapshot's setting); "
        "needs --storage-dir",
    )
    serve_p.add_argument(
        "--fault-plan",
        metavar="PLAN",
        default=None,
        help="arm seeded fault injection on every durability path (WAL, "
        "cold stores, snapshots): a preset name (wal-torn, "
        "page-bitflip, enospc-snapshot) or a JSON plan file — for "
        "resilience drills against a live service",
    )
    serve_p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="S",
        help="seed for --fault-plan rule RNGs (default 0)",
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; ``argv`` defaults to no arguments (the demo), and the
    ``python -m repro`` block below passes the real command line."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="regression cubes for time-series data streams",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("demo", help="run the 30-second self-demonstration")

    soak_p = sub.add_parser(
        "soak",
        help="hammer a live service with concurrent seeded traffic and "
        "verify the final state against the brute-force oracle",
    )
    soak_p.add_argument(
        "--seed", type=int, default=0, help="RNG seed (default 0)"
    )
    soak_p.add_argument(
        "--duration",
        type=float,
        default=30.0,
        help="how long to run the concurrent phase, seconds (default 30)",
    )
    soak_p.add_argument(
        "--shards", type=int, default=4, help="engine shards (default 4)"
    )
    soak_p.add_argument(
        "--ingest-threads",
        type=int,
        default=3,
        help="concurrent ingest workers (default 3)",
    )
    soak_p.add_argument(
        "--query-threads",
        "--query-clients",
        dest="query_threads",
        type=int,
        default=2,
        help="concurrent query clients hammering the service (default 2)",
    )
    soak_p.add_argument(
        "--subscribers",
        type=int,
        default=0,
        metavar="N",
        help="continuous-query subscribers long-polling pushed updates "
        "while the stream seals (each verifies ordering and payloads "
        "against the oracle; default 0)",
    )
    soak_p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick an ephemeral port)",
    )
    soak_p.add_argument(
        "--storage",
        action="store_true",
        help="also spill sealed history to a cold store during the soak "
        "(default: no tiered storage)",
    )
    soak_p.add_argument(
        "--hot-quarters",
        type=int,
        default=2,
        metavar="K",
        help="hot horizon for --storage runs (default 2)",
    )
    soak_p.add_argument(
        "--fault-plan",
        metavar="PLAN",
        default=None,
        help="arm seeded fault injection for the whole soak: a preset "
        "name (wal-torn, page-bitflip, enospc-snapshot) or a JSON plan "
        "file; the verdict must stay zero mismatches",
    )

    serve_help = "run the sharded stream-cube HTTP service"
    add_serve_arguments(sub.add_parser("serve", help=serve_help))

    args = parser.parse_args(argv if argv is not None else [])
    if args.command == "serve":
        return serve_command(args)
    if args.command == "soak":
        return soak_command(args)
    return demo()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
