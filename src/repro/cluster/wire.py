"""Length-prefixed JSON frames and method codecs for the shard RPC.

The process backend (:mod:`repro.cluster.process`) talks to each worker
over a ``socketpair`` carrying length-prefixed JSON frames: a 4-byte
big-endian length followed by a UTF-8 JSON document.  JSON is the right
wire format here for the same reason it is the snapshot format: Python's
``repr``-shortest float round trip is bit-exact (documented in
:mod:`repro.io`), so results decoded from a worker are bit-identical to
the in-process backend's — the equivalence guarantee the sharded cube
advertises survives the hop.

Each method's arguments and result have a tiny, explicit codec
(:func:`encode_args` / :func:`decode_args` / :func:`encode_result` /
:func:`decode_result`) built on the engine-state codecs in :mod:`repro.io`
— no pickling anywhere, so the protocol is inspectable and
version-diffable.  The one window read, ``window_columns``, answers as a
generation, the keys (only when the parent lacks them), one interval and
two float lists.  Ingest batches cross as the engine's coded segments
(:data:`repro.stream.engine.Segment`): ``[quarter, keys, group, ticks,
z]`` — each distinct cell key once, then three aligned number lists with
one entry per record, ``group[i]`` the index of record ``i``'s key.

Failure classification
----------------------
When a worker dies mid-call the supervisor must decide what the lost call
means.  Three classes cover every RPC method:

``IDEMPOTENT``
    Pure reads (and the atomic per-shard snapshot write): safe to retry
    verbatim against the revived worker.
``REPLAY_COVERED``
    Mutations the cube journals *before* dispatch (``apply_segments``,
    ``ingest``, ``advance_to``): the revived worker's WAL replay already
    re-applied them, so the lost call is treated as applied.
``UNRECOVERABLE``
    Mutations with no journal trail (``prune_idle``, ``load_state``):
    the crash is surfaced as a :class:`~repro.errors.ServiceError` rather
    than guessed around.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

from repro import errors as _errors
from repro import faults
from repro.errors import ReproError, ServiceError
from repro.io import engine_state_from_dict, engine_state_to_dict
from repro.regression import kernels
from repro.stream.records import StreamRecord

__all__ = [
    "IDEMPOTENT",
    "REPLAY_COVERED",
    "UNRECOVERABLE",
    "WorkerCrash",
    "classify",
    "decode_args",
    "decode_result",
    "encode_args",
    "encode_result",
    "error_from_wire",
    "error_to_wire",
    "recv_frame",
    "send_frame",
]

_HEADER = struct.Struct(">I")

#: Frames larger than this are a protocol error, not a payload (a corrupt
#: header would otherwise ask for gigabytes).
MAX_FRAME = 1 << 30


class WorkerCrash(Exception):
    """Internal supervisor signal: the worker died before replying.

    Never escapes the backend — :meth:`ProcessBackend.call` converts it
    into a retry, a treat-as-applied, or a :class:`ServiceError` according
    to :func:`classify`.
    """


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame.

    The :mod:`repro.faults` seam (site ``rpc.send``) can corrupt, delay
    or fail the send; all three degrade into the supervisor's existing
    crash handling — a garbled frame kills the worker's loop, a send
    error marks the worker dead, and either way recovery is snapshot +
    WAL replay.
    """
    faults.check("rpc.send")
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    data = faults.corrupt("rpc.send", data)
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes, or ``None`` on EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return None  # clean close between frames
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; ``None`` when the peer closed the connection.

    A frame that fails to parse raises :class:`ConnectionError` — to the
    supervisor that is indistinguishable from a dead peer, which is the
    correct reading: the channel can no longer be trusted, so the worker
    is recycled through the normal crash-recovery path.
    """
    faults.check("rpc.recv")
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ConnectionError(f"frame of {length} bytes exceeds MAX_FRAME")
    data = _recv_exact(sock, length)
    if data is None:
        raise ConnectionError("connection closed mid-frame")
    data = faults.corrupt("rpc.recv", data)
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConnectionError(f"corrupt frame: {exc}") from None


# ---------------------------------------------------------------------------
# Method argument / result codecs
# ---------------------------------------------------------------------------
def _encode_segments(segments: list) -> list:
    """Coded ``(quarter, keys, group, ticks, z)`` segments as JSON rows.

    ``keys`` — the segment's distinct m-layer value tuples (schema values:
    ints and strings), which JSON round-trips exactly — ride once; the
    three aligned record columns ride as plain number lists.  Key order and
    record order are preserved, which the ingest contract requires.
    """
    return [
        [
            quarter,
            [list(key) for key in keys],
            group.tolist(),
            ticks.tolist(),
            z.tolist(),
        ]
        for quarter, keys, group, ticks, z in segments
    ]


def _decode_segments(payload: list) -> list:
    return [
        (
            int(quarter),
            [tuple(key) for key in keys],
            kernels.int_column(group),
            kernels.int_column(ticks),
            kernels.float_column(z),
        )
        for quarter, keys, group, ticks, z in payload
    ]


def _encode_record(record: StreamRecord) -> list:
    return [list(record.values), record.t, record.z]


def _decode_record(payload: list) -> StreamRecord:
    values, t, z = payload
    return StreamRecord(values=tuple(values), t=int(t), z=float(z))


def encode_args(method: str, args: tuple) -> list:
    """JSON-ready argument list for one RPC request."""
    if method == "apply_segments":
        segments, n_records = args
        return [_encode_segments(segments), n_records]
    if method == "validate_segment_keys":
        return [_encode_segments(args[0])]
    if method == "ingest":
        return [_encode_record(args[0])]
    if method == "load_state":
        return [engine_state_to_dict(args[0])]
    return list(args)  # ints / floats / strings / None pass through


def decode_args(method: str, payload: list) -> tuple:
    """Inverse of :func:`encode_args` (runs in the worker)."""
    if method == "apply_segments":
        segments, n_records = payload
        return (_decode_segments(segments), int(n_records))
    if method == "validate_segment_keys":
        return (_decode_segments(payload[0]),)
    if method == "ingest":
        return (_decode_record(payload[0]),)
    if method == "load_state":
        return (engine_state_from_dict(payload[0]),)
    return tuple(payload)


def encode_result(method: str, value: Any) -> Any:
    """JSON-ready result payload for one RPC reply (runs in the worker)."""
    if method == "window_columns":
        # One window, one interval: it rides once, the two float columns as
        # number lists (bit-exact through JSON), the keys only when the
        # engine sent them.
        generation, keys, isbs = value
        interval = [int(isbs.t_b[0]), int(isbs.t_e[0])] if len(isbs) else [0, -1]
        return [
            generation,
            keys and [list(key) for key in keys],
            interval,
            isbs.base.tolist(),
            isbs.slope.tolist(),
        ]
    if method == "snapshot":
        return engine_state_to_dict(value)
    return value


def decode_result(method: str, payload: Any) -> Any:
    """Inverse of :func:`encode_result` (runs in the parent)."""
    if method == "window_columns":
        generation, keys, interval, base, slope = payload
        return (
            generation,
            keys and [tuple(key) for key in keys],
            kernels.ISBColumns.over(
                *interval, kernels.float_column(base), kernels.float_column(slope)
            ),
        )
    if method == "snapshot":
        return engine_state_from_dict(payload)
    return payload


# ---------------------------------------------------------------------------
# Error transport
# ---------------------------------------------------------------------------
def error_to_wire(exc: BaseException) -> dict[str, str]:
    """Type name + message — enough to rebuild the domain exception."""
    return {"t": type(exc).__name__, "e": str(exc)}


def error_from_wire(type_name: str, message: str) -> Exception:
    """Rebuild a :class:`ReproError` subclass by name.

    The registry is :mod:`repro.errors` itself; an exception type the
    parent does not know (a worker-side ``ValueError``, say) degrades to a
    :class:`ServiceError` carrying the original name and message.
    """
    cls = getattr(_errors, type_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return ServiceError(f"worker error {type_name}: {message}")


# ---------------------------------------------------------------------------
# Failure classification
# ---------------------------------------------------------------------------
IDEMPOTENT = "idempotent"
REPLAY_COVERED = "replay_covered"
UNRECOVERABLE = "unrecoverable"

_IDEMPOTENT_METHODS = frozenset(
    {
        "window_columns",
        "snapshot",
        "snapshot_to_file",
        "storage_stats",
        "compact_storage",
        "drop_page_cache",
        "validate_segment_keys",
        "ping",
    }
)
_REPLAY_COVERED_METHODS = frozenset({"apply_segments", "ingest", "advance_to"})


def classify(method: str) -> str:
    """What a lost-in-flight call of ``method`` means (see module docs)."""
    if method in _IDEMPOTENT_METHODS:
        return IDEMPOTENT
    if method in _REPLAY_COVERED_METHODS:
        return REPLAY_COVERED
    return UNRECOVERABLE
