"""Crash recovery through the service and CLI layers.

Covers the acceptance path end to end: a service with ``--snapshot-dir``
journals every batch, ``POST /admin/snapshot`` checkpoints on demand, the
periodic trigger checkpoints on a quarter cadence, and after a simulated
crash — between quarters or mid-quarter — ``build_service(--restore DIR)``
serves queries identical to an uninterrupted service.  One subprocess test
drives the real ``python -m repro serve`` process through SIGTERM and
asserts the graceful-shutdown final snapshot restores.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro import faults
from repro.__main__ import build_service
from repro.errors import CodecError
from repro.io import payload_checksum
from repro.service.http import StreamCubeService
from repro.service.router import QueryRouter
from repro.service.sharding import ShardedStreamCube

from tests.service.conftest import TPQ, workload

REPO_ROOT = Path(__file__).resolve().parents[2]


def serve_args(tmp_path, **overrides) -> argparse.Namespace:
    """The ``python -m repro serve`` argument namespace the CLI would build."""
    defaults = dict(
        shards=2,
        port=0,
        host="127.0.0.1",
        dims=2,
        levels=2,
        fanout=3,
        threshold=0.1,
        ticks_per_quarter=TPQ,
        window=4,
        restore=None,
        snapshot_dir=str(tmp_path / "snaps"),
        snapshot_every_quarters=0,
        storage_dir=None,
        hot_quarters=None,
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


def rows(records) -> list[dict]:
    return [{"values": list(r.values), "t": r.t, "z": r.z} for r in records]


def ok(service: StreamCubeService, method: str, path: str, payload=None):
    status, body = service.handle(method, path, payload)
    assert status == 200, body
    return body


QUERIES = [
    {"op": "cell", "coord": [1, 1], "values": [0, 0]},
    {"op": "watch_list"},
    {"op": "observation_deck"},
    {"op": "top_slopes", "coord": [1, 1], "k": 5},
    {"op": "exceptions"},
]


def query_bodies(service: StreamCubeService) -> list[dict]:
    return [ok(service, "POST", "/query", q) for q in QUERIES]


class TestAdminSnapshot:
    def test_snapshot_route_writes_and_compacts(self, tmp_path):
        service = build_service(serve_args(tmp_path))
        try:
            ok(service, "POST", "/ingest", {"records": rows(workload(3))})
            body = ok(service, "POST", "/admin/snapshot")
            assert body["shards"] == 2
            assert Path(body["path"]).joinpath("manifest.json").exists()
            stats = ok(service, "GET", "/stats")["durability"]
            # One bootstrap snapshot at build time plus the admin one.
            assert stats["snapshots_written"] == 2
            assert stats["wal_seq"] == 1
            # The journal compacted through the snapshot: nothing to replay.
            from repro.stream.wal import QuarterWAL

            wal = QuarterWAL(Path(body["path"]) / "wal.jsonl")
            assert list(wal.entries(after_seq=body["wal_seq"])) == []
        finally:
            service.close()

    def test_snapshot_route_without_dir_is_400(self, layers, policy):
        cube = ShardedStreamCube(
            layers, policy, n_shards=2, ticks_per_quarter=TPQ
        )
        service = StreamCubeService(cube, QueryRouter(cube))
        try:
            status, body = service.handle("POST", "/admin/snapshot")
            assert status == 400
            assert body["type"] == "ServiceError"
            assert "snapshot" in body["error"]
        finally:
            service.close()

    def test_periodic_snapshots_every_k_quarters(self, tmp_path):
        service = build_service(
            serve_args(tmp_path, snapshot_every_quarters=2)
        )
        try:
            records = workload(5)
            for record in records:  # tiny batches: cross quarters gradually
                ok(
                    service,
                    "POST",
                    "/ingest",
                    {"records": rows([record])},
                )
            ok(service, "POST", "/advance", {"t": 6 * TPQ})
            stats = ok(service, "GET", "/stats")["durability"]
            # Bootstrap at quarter 0 + 6 quarters sealed at K=2 -> 3 more.
            assert stats["snapshots_written"] == 4
            assert stats["last_snapshot_quarter"] == 6
        finally:
            service.close()


class TestPeriodicSnapshotFailure:
    def test_failed_trigger_answers_200_counts_and_retries(self, tmp_path):
        records = workload(11)
        by_quarter = [
            [r for r in records if r.t // TPQ == q] for q in range(6)
        ]
        reference = build_service(
            serve_args(tmp_path, snapshot_dir=str(tmp_path / "ref"))
        )
        service = build_service(
            serve_args(tmp_path, snapshot_every_quarters=1)
        )
        try:
            for svc in (reference, service):
                ok(svc, "POST", "/ingest", {"records": rows(by_quarter[0])})
            faults.install(
                {
                    "rules": [
                        {"site": "snapshot.write", "kind": "enospc", "count": 0}
                    ]
                }
            )
            head, tail = by_quarter[1][:5], by_quarter[1][5:]
            try:
                # The batch seals quarter 0 and fires the trigger, whose
                # snapshot fails: the batch is committed all the same.
                body = ok(service, "POST", "/ingest", {"records": rows(head)})
                assert body["current_quarter"] == 1
                # The on-demand route still reports the failure itself.
                status, error = service.handle("POST", "/admin/snapshot")
                assert (status, error["type"]) == (400, "StorageError")
            finally:
                faults.clear()
            ok(reference, "POST", "/ingest", {"records": rows(head)})
            durability = ok(service, "GET", "/stats")["durability"]
            assert durability["snapshot_failures"] == 1
            assert durability["last_snapshot_error"].startswith("StorageError")
            assert durability["snapshots_written"] == 1  # the bootstrap one
            assert durability["last_snapshot_quarter"] == 0
            assert durability["wal_seq"] == 2
            assert service.cube.records_ingested == len(by_quarter[0]) + 5

            # The fault is gone: the next mutating request, a mid-quarter
            # one, writes the snapshot the failed trigger owed.
            for svc in (reference, service):
                ok(svc, "POST", "/ingest", {"records": rows(tail)})
            durability = ok(service, "GET", "/stats")["durability"]
            assert durability["snapshots_written"] == 2
            assert durability["last_snapshot_quarter"] == 1
            assert durability["snapshot_failures"] == 1
            # Every later seal snapshots; half of the last quarter stays
            # a WAL tail for the restore to replay.
            last = by_quarter[5]
            batches = [*by_quarter[2:5], last[:5], last[5:]]
            for batch in batches:
                for svc in (reference, service):
                    ok(svc, "POST", "/ingest", {"records": rows(batch)})
            assert ok(service, "GET", "/stats")["durability"][
                "last_snapshot_quarter"
            ] == 5
        finally:
            # Simulated crash: no final snapshot.
            service.cube.close()
        restored = build_service(
            serve_args(tmp_path, restore=str(tmp_path / "snaps"), shards=None)
        )
        try:
            assert (
                restored.cube.records_ingested
                == reference.cube.records_ingested
                == len(records)
            )
            for svc in (reference, restored):
                ok(svc, "POST", "/advance", {"t": 6 * TPQ})
            assert restored.cube.m_cells() == reference.cube.m_cells()
            assert query_bodies(restored) == query_bodies(reference)
        finally:
            restored.close()
            reference.close()


class TestRestoreCLI:
    @pytest.mark.parametrize("kill", ["between_quarters", "mid_quarter"])
    def test_restore_serves_identical_queries_after_crash(
        self, tmp_path, kill
    ):
        records = workload(7)
        # Cut either exactly at a quarter boundary or mid-quarter.
        if kill == "between_quarters":
            cut = next(
                i
                for i, r in enumerate(records)
                if r.t // TPQ == 4
            )
        else:
            cut = next(
                i
                for i, r in enumerate(records)
                if r.t // TPQ == 4 and r.t % TPQ == 2
            )

        # The uninterrupted reference service.
        reference = build_service(
            serve_args(tmp_path, snapshot_dir=str(tmp_path / "ref"))
        )
        crashed = build_service(serve_args(tmp_path))
        try:
            ok(reference, "POST", "/ingest", {"records": rows(records)})
            ok(reference, "POST", "/advance", {"t": 6 * TPQ})

            ok(crashed, "POST", "/ingest", {"records": rows(records[:cut])})
            ok(crashed, "POST", "/admin/snapshot")
            # Everything after the snapshot lives only in the WAL.
            ok(crashed, "POST", "/ingest", {"records": rows(records[cut:])})
            ok(crashed, "POST", "/advance", {"t": 6 * TPQ})
        finally:
            # Simulated crash: the process dies without a final snapshot.
            crashed.cube.close()

        restored = build_service(
            serve_args(
                tmp_path,
                restore=str(tmp_path / "snaps"),
                shards=None,  # keep the snapshot's count
            )
        )
        try:
            assert restored.cube.current_quarter == 6
            assert (
                restored.cube.records_ingested
                == reference.cube.records_ingested
            )
            assert query_bodies(restored) == query_bodies(reference)
        finally:
            restored.close()
            reference.close()

    def test_restore_with_reshard_serves_identical_queries(self, tmp_path):
        records = workload(9)
        reference = build_service(
            serve_args(tmp_path, snapshot_dir=str(tmp_path / "ref"))
        )
        original = build_service(serve_args(tmp_path, shards=3))
        try:
            for service in (reference, original):
                ok(service, "POST", "/ingest", {"records": rows(records)})
                ok(service, "POST", "/advance", {"t": 6 * TPQ})
            ok(original, "POST", "/admin/snapshot")
        finally:
            original.cube.close()
        restored = build_service(
            serve_args(
                tmp_path, restore=str(tmp_path / "snaps"), shards=7
            )
        )
        try:
            assert restored.cube.n_shards == 7
            assert query_bodies(restored) == query_bodies(reference)
        finally:
            restored.close()
            reference.close()

    def test_fresh_start_refuses_dir_with_existing_snapshot(self, tmp_path):
        from repro.errors import ServiceError

        original = build_service(serve_args(tmp_path))
        original.close()  # bootstrap manifest now exists in snaps/
        with pytest.raises(ServiceError, match="already holds a snapshot"):
            build_service(serve_args(tmp_path))

    def test_crash_before_first_snapshot_recovers_from_wal_alone(
        self, tmp_path
    ):
        """A journal-only directory (no manifest) restores by full replay."""
        from repro.cubing.policy import GlobalSlopeThreshold
        from repro.stream.generator import DatasetSpec
        from repro.stream.wal import QuarterWAL

        records = workload(13)
        snaps = tmp_path / "onlywal"
        wal = QuarterWAL(snaps / "wal.jsonl")
        cube = ShardedStreamCube(
            DatasetSpec(2, 2, 3, 1).build_layers(),  # the serve_args schema
            GlobalSlopeThreshold(0.1),
            n_shards=2,
            ticks_per_quarter=TPQ,
            wal=wal,
        )
        with cube:
            cube.ingest_batch(records)
            cube.advance_to(6 * TPQ)  # crash: journaled but never snapshotted
        wal.close()
        restored = build_service(
            serve_args(
                tmp_path,
                restore=str(snaps),
                snapshot_dir=str(snaps),
            )
        )
        try:
            assert restored.cube.records_ingested == len(records)
            assert restored.cube.current_quarter == 6
        finally:
            restored.close()

    def test_journal_of_sealed_segments_only_restores(self, tmp_path):
        """A crash between a rotation's rename and its new header leaves
        sealed segments and no ``wal.jsonl``: ``--restore`` still finds
        the journal and replays it bit for bit."""
        from repro.cubing.policy import GlobalSlopeThreshold
        from repro.stream.generator import DatasetSpec
        from repro.stream.wal import QuarterWAL

        records = workload(17)
        snaps = tmp_path / "onlywal"
        wal = QuarterWAL(snaps / "wal.jsonl")
        cube = ShardedStreamCube(
            DatasetSpec(2, 2, 3, 1).build_layers(),  # the serve_args schema
            GlobalSlopeThreshold(0.1),
            n_shards=2,
            ticks_per_quarter=TPQ,
            wal=wal,
        )
        with cube:
            cube.ingest_batch(records[: len(records) // 2])
            wal.truncate_through(0)  # rotate, drop nothing
            cube.ingest_batch(records[len(records) // 2 :])
            cube.advance_to(6 * TPQ)
            wal.truncate_through(0)
            live = cube.window_isbs(0, 6 * TPQ - 1)
        wal.close()
        (snaps / "wal.jsonl").unlink()  # the crash: no fresh header yet
        assert len(list(snaps.iterdir())) == 2
        restored = build_service(
            serve_args(
                tmp_path,
                restore=str(snaps),
                snapshot_dir=str(tmp_path / "fresh"),
            )
        )
        try:
            assert restored.cube.records_ingested == len(records)
            assert restored.cube.window_isbs(0, 6 * TPQ - 1) == live
        finally:
            restored.close()

    def test_restore_uses_recorded_app_config(self, tmp_path):
        original = build_service(serve_args(tmp_path, dims=2, fanout=3))
        try:
            ok(original, "POST", "/ingest", {"records": rows(workload(3))})
            ok(original, "POST", "/admin/snapshot")
        finally:
            original.cube.close()
        # Deliberately wrong CLI flags: the manifest's app config wins.
        restored = build_service(
            serve_args(
                tmp_path,
                restore=str(tmp_path / "snaps"),
                dims=5,
                fanout=11,
                shards=None,
            )
        )
        try:
            assert restored.cube.layers.schema.n_dims == 2
            assert restored.app_config["fanout"] == 3
        finally:
            restored.close()

    def test_hot_quarters_without_storage_dir_is_refused(self, tmp_path):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="--hot-quarters needs"):
            build_service(serve_args(tmp_path, hot_quarters=2))
        assert not (tmp_path / "snaps").exists()  # no WAL, no snapshot

    def test_restore_with_hot_quarters_without_storage_dir_is_refused(
        self, tmp_path
    ):
        from repro.errors import ServiceError

        build_service(serve_args(tmp_path)).close()
        snaps = tmp_path / "snaps"
        before = {p.name: p.read_bytes() for p in snaps.iterdir()}
        with pytest.raises(ServiceError, match="--hot-quarters needs"):
            build_service(
                serve_args(tmp_path, restore=str(snaps), hot_quarters=2)
            )
        assert {p.name: p.read_bytes() for p in snaps.iterdir()} == before


#: Manifest fields a restore reads, each malformed one way.  Every case is
#: a ``CodecError`` from ``restore`` and ``build_service`` alike (a journal
#: lies beside each manifest), and ``serve --restore`` exits 2 on it.
MALFORMED_MANIFESTS = {
    "no-n-shards": lambda manifest: manifest.pop("n_shards"),
    "n-shards-two": lambda manifest: manifest.update(n_shards="two"),
    "wal-seq-x": lambda manifest: manifest.update(wal_seq="x"),
    "app-list": lambda manifest: manifest.update(app=[1]),
}

#: Members of the recorded ``app`` config, which only ``build_service``
#: reads: a ``CodecError`` there, and exit 2 from ``serve --restore``.
MALFORMED_APPS = {
    "app-dims-str": lambda manifest: manifest["app"].update(dims="two"),
    "app-window-float": lambda manifest: manifest["app"].update(window=4.5),
    "app-threshold-str": lambda manifest: manifest["app"].update(
        threshold="high"
    ),
}


@pytest.fixture(params=["checksum-dropped", "checksum-recomputed"])
def malformed_snapshot(request, tmp_path):
    """``mangle(name)``: a served snapshot directory (manifest, shard
    files, journal) whose manifest went through one malformation."""

    def mangle(name: str) -> Path:
        service = build_service(serve_args(tmp_path))
        try:
            ok(service, "POST", "/ingest", {"records": rows(workload(3))})
            ok(service, "POST", "/admin/snapshot")
        finally:
            service.close()
        snaps = tmp_path / "snaps"
        path = snaps / "manifest.json"
        manifest = json.loads(path.read_text())
        {**MALFORMED_MANIFESTS, **MALFORMED_APPS}[name](manifest)
        del manifest["checksum"]
        if request.param == "checksum-recomputed":
            manifest["checksum"] = payload_checksum(manifest)
        path.write_text(json.dumps(manifest))
        assert (snaps / "wal.jsonl").exists()
        return snaps

    return mangle


@pytest.mark.parametrize("name", sorted(MALFORMED_MANIFESTS))
def test_restore_raises_codec_error(malformed_snapshot, layers, policy, name):
    snaps = malformed_snapshot(name)
    with pytest.raises(CodecError, match="manifest"):
        ShardedStreamCube.restore(snaps, layers, policy)


@pytest.mark.parametrize(
    "name", sorted(MALFORMED_MANIFESTS) + sorted(MALFORMED_APPS)
)
class TestMalformedManifest:
    def test_build_service_raises_codec_error(self, malformed_snapshot, tmp_path, name):
        snaps = malformed_snapshot(name)
        with pytest.raises(CodecError, match="manifest"):
            build_service(
                serve_args(tmp_path, restore=str(snaps), snapshot_dir=None)
            )

    def test_serve_restore_exits_2(self, malformed_snapshot, name):
        snaps = malformed_snapshot(name)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--restore", str(snaps)],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: snapshot: manifest"), proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or sys.platform == "win32",
    reason="POSIX signals required",
)
class TestGracefulShutdown:
    def test_sigterm_drains_and_snapshots(self, tmp_path):
        """The real process: serve, ingest, SIGTERM, restore the final
        snapshot."""
        port = _free_port()
        snaps = tmp_path / "snaps"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                str(port),
                "--shards",
                "2",
                "--dims",
                "2",
                "--levels",
                "2",
                "--fanout",
                "3",
                "--ticks-per-quarter",
                str(TPQ),
                "--snapshot-dir",
                str(snaps),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            _wait_for_port(port, proc)
            records = workload(11)
            _post(port, "/ingest", {"records": rows(records)})
            # Leave the stream mid-quarter: the final snapshot must carry
            # the unsealed accumulators too.
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=15)
            assert proc.returncode == 0, out
            assert "final snapshot" in out
            assert (snaps / "manifest.json").exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        restored = build_service(
            serve_args(tmp_path, restore=str(snaps), shards=None)
        )
        try:
            assert restored.cube.records_ingested == len(records)
            assert restored.cube.current_quarter == 5  # t up to 6*TPQ-1
        finally:
            restored.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_port(port: int, proc: subprocess.Popen, timeout: float = 15.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            out, _ = proc.communicate()
            raise AssertionError(f"serve exited early:\n{out}")
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.05)
    raise AssertionError("serve did not start listening in time")


def _post(port: int, path: str, payload: dict) -> dict:
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as response:
        return json.loads(response.read())
