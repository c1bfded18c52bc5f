"""Lifecycle of the ``python -m repro serve`` subprocess under test.

One :class:`Server` owns one subprocess *and* every keep-alive connection
opened to it, because the two lifetimes are coupled: a parked keep-alive
connection occupies a request-pool thread, and ``server_close()`` joins the
pool, so a ``SIGTERM`` sent while a client connection is still open never
finishes draining.  :meth:`Server.stop` therefore closes the connections
first, then terminates, then falls back to ``SIGKILL``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

__all__ = ["Connection", "Server", "ServerError"]

_HOST = "127.0.0.1"
_JSON_HEADERS = {"Content-Type": "application/json"}


class ServerError(RuntimeError):
    """The server under test did not start, answer or stop as required."""


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((_HOST, 0))
        return sock.getsockname()[1]


class Connection:
    """One keep-alive ``http.client`` connection.

    Nothing here tunes the socket: no per-request reconnects and no
    client-side ``TCP_QUICKACK``, so what the server's response framing
    costs a stock HTTP/1.1 client is what gets measured.
    """

    def __init__(self, port: int, timeout: float) -> None:
        self._conn = http.client.HTTPConnection(_HOST, port, timeout=timeout)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        self._conn.request(
            method, path, body=body, headers=_JSON_HEADERS if body is not None else {}
        )
        response = self._conn.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, payload: Any = None) -> Any:
        """Request + decode; raises :class:`ServerError` unless 200."""
        body = None if payload is None else json.dumps(payload).encode()
        status, data = self.request(method, path, body)
        if status != 200:
            raise ServerError(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self._conn.close()


class Server:
    """A spawned service plus the client connections opened to it."""

    def __init__(self, serve_flags: list[str], src_dir: Path, log_path: Path) -> None:
        self.port = _free_port()
        self._log_path = log_path
        self._connections: list[Connection] = []
        # A fixed hash seed keeps dict/set layout — and with it a few percent
        # of run-to-run timing noise — out of the comparison between runs.
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(src_dir), *([inherited] if inherited else [])]),
            PYTHONUNBUFFERED="1",
            PYTHONHASHSEED="0",
        )
        self.spawned_at = time.perf_counter()
        self._log = open(log_path, "wb")
        try:
            self._proc: subprocess.Popen | None = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", str(self.port), *serve_flags],
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=self._log,
                stderr=subprocess.STDOUT,
            )
        except BaseException:
            self._log.close()
            raise

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def connect(self, timeout: float = 30.0) -> Connection:
        conn = Connection(self.port, timeout)
        self._connections.append(conn)
        return conn

    def wait_ready(self, timeout: float = 60.0) -> Connection:
        """Poll ``GET /readyz`` until 200; returns the connection used."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            assert self._proc is not None
            if self._proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self._proc.returncode} before it was "
                    f"ready; see {self._log_path}"
                )
            conn = Connection(self.port, timeout=30.0)
            try:
                status, _ = conn.request("GET", "/readyz")
            except OSError:  # not listening yet
                status = None
            if status == 200:
                self._connections.append(conn)
                return conn
            conn.close()
            time.sleep(0.01)
        raise ServerError(f"server not ready within {timeout}s; see {self._log_path}")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line in /proc status")

    def cpu_seconds(self) -> float:
        """User + system CPU time the server process has used so far."""
        # Fields 14 and 15 of /proc/<pid>/stat, counted after the
        # parenthesised command name (which may itself contain spaces).
        fields = Path(f"/proc/{self.pid}/stat").read_text().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def _close_connections(self) -> None:
        for conn in self._connections:
            conn.close()
        self._connections.clear()

    def kill(self) -> None:
        """``SIGKILL`` — the crash the recovery metric starts from."""
        self._finish(signal.SIGKILL)

    def stop(self) -> None:
        """Close connections, ``SIGTERM``, wait, ``SIGKILL`` if needed."""
        self._finish(signal.SIGTERM)

    def _finish(self, sig: signal.Signals) -> None:
        self._close_connections()
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(sig)
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            self._log.close()
