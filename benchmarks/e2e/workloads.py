"""The four seeded workloads of the e2e ledger and their input streams.

A workload is a traffic mix against one ``python -m repro serve`` instance.
Everything the server sees is generated here from ``--seed``; the seed
never reaches the server.

Stream model (shared by all four so their numbers are comparable):

* a fixed cell *pool* drawn once per seed; a record picks its cell by
  Zipf(s=1.0) rank over the pool, so a few cells are hot and most are cold
  (the skew the AutoSeries-style series in PAPERS.md have);
* one ingest batch per primitive tick; the batch for tick ``t`` is template
  ``t % TEMPLATES`` with the tick substituted into every record, so a body
  is pre-encoded once and a run of any length needs no generator CPU
  inside the clock;
* a cell's measure is ``level + trend * (t % TEMPLATES) + noise``: a
  sawtooth, so analysis windows shorter than the period see real slopes
  and a few percent of cells sit above the exception threshold;
* prefill is a *census* (one record per pool cell, so the tracked-cell
  count stays constant while measuring) followed by one batch per quarter
  for ``window + 2`` quarters (6 by default), so the first query of the
  load phase already has a full window behind it.

The acknowledged stream is therefore fully described by the list of acked
ticks, which is what the oracle audit rebuilds it from.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.stream.records import StreamRecord

__all__ = [
    "SERVE_SCHEMA_FLAGS",
    "TEMPLATES",
    "WORKLOADS",
    "Stream",
    "Workload",
    "build_stream",
]

#: Distinct batch bodies per stream, and the sawtooth period in ticks.
TEMPLATES = 64
#: The substitution slot every template record carries for its tick.
_TICK_SLOT = b'"t":-1,'

#: Schema/serving flags shared by every workload (ISSUE 11): 10^3 leaves
#: per dimension, three levels m-layer..o-layer, in-process shard backend.
SERVE_SCHEMA_FLAGS = (
    "--shards", "2", "--request-threads", "4", "--dims", "3",
    "--levels", "3", "--fanout", "10", "--threshold", "0.05",
    "--window", "4",
)
_LEAVES = 1000  # fanout ** levels


_READER_OPS: dict[str, tuple[str, ...]] = {
    "idle": (),
    "dashboard": ("hit", "miss", "fresh"),
    "push": ("push",),
    "deep": ("fresh",),
}


@dataclass(frozen=True)
class Workload:
    """One named traffic mix; ``why`` is mirrored into BENCHMARK.json."""

    name: str
    why: str
    pool_cells: int
    batch_records: int
    ticks_per_quarter: int
    #: Open-loop tick period in seconds; ``None`` = closed loop (capacity).
    tick_s: float | None
    #: What the second connection does during the load phase:
    #: ``"idle"``, ``"dashboard"`` (hit/miss/fresh pulls), ``"push"``
    #: (long-poll one subscription) or ``"deep"`` (fresh pull per seal).
    reader: str
    #: Analysis window (quarters) of this workload's own queries.
    window: int = 4
    #: ``POST /subscribe`` payloads registered during set-up.
    subscriptions: tuple[dict[str, Any], ...] = ()
    #: WAL + snapshots + cold store on, snapshot every N sealed quarters.
    durable: bool = False
    snapshot_every: int = 0
    #: Quarters of the load schedule the count-bound traced replay covers.
    replay_quarters: int = 20

    @property
    def prefill_quarters(self) -> int:
        return self.window + 2

    @property
    def load_ops(self) -> tuple[str, ...]:
        """The read operations this workload's load window contains."""
        return _READER_OPS[self.reader]

    def serve_flags(self, snapshot_dir: str = "", storage_dir: str = "") -> list[str]:
        flags = [*SERVE_SCHEMA_FLAGS, "--ticks-per-quarter", str(self.ticks_per_quarter)]
        if self.durable:
            flags += [
                "--snapshot-dir", snapshot_dir, "--storage-dir", storage_dir,
                "--storage-backend", "file", "--hot-quarters", "2",
            ]
        return flags

    @property
    def hit_query(self) -> dict[str, Any]:
        """The spec this workload's dashboard repeats between seals."""
        return {"op": "observation_deck", "window": self.window}

    def miss_query(self, n: int) -> dict[str, Any]:
        """The ``n``-th never-repeated spec (distinct ``k``): a result-cache
        miss that is answered from the already-merged view."""
        return {"op": "top_slopes", "coord": [1, 1, 1], "k": n + 1, "window": self.window}


_PUSH_SUBSCRIPTIONS: tuple[dict[str, Any], ...] = (
    # Index 0 is the one the benchmark long-polls.
    {"spec": {"op": "observation_deck"}, "every_seal": True},
    {"spec": {"op": "observation_deck"}, "every_seal": True},
    {"watch": True, "every_seal": True},
    {"watch": True, "every_seal": True},
    {"watch": True, "every_seal": True},
    {"watch": True, "every_seal": True},
    {"spec": {"op": "top_slopes", "coord": [1, 1, 1], "k": 5}, "every_seal": True},
    {"spec": {"op": "top_slopes", "coord": [2, 2, 2], "k": 10}, "every_seal": True},
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ingest_firehose",
            why="closed-loop 2000-record batches, no reads: capacity of decode, "
            "routing, apply and the grouped seal; work moved into seal shows as a cost",
            pool_cells=4000,
            batch_records=2000,
            ticks_per_quarter=15,
            tick_s=None,
            reader="idle",
            replay_quarters=8,
        ),
        Workload(
            name="dashboard_seal",
            why="a seal every 0.8 s with hit, miss and first-after-seal pulls: the "
            "refresh path (window fan-out, merge, cubing) dominates; ingest is light",
            pool_cells=2000,
            batch_records=400,
            ticks_per_quarter=8,
            tick_s=0.1,
            reader="dashboard",
        ),
        Workload(
            name="push_fanout",
            why="same stream as dashboard_seal but 8 subscriptions pushed by the "
            "dispatcher and no pulls: event-to-result lag and the subscription tax on acks",
            pool_cells=2000,
            batch_records=400,
            ticks_per_quarter=8,
            tick_s=0.1,
            reader="push",
            subscriptions=_PUSH_SUBSCRIPTIONS,
        ),
        Workload(
            name="durable_deep",
            why="small cube with WAL, snapshots and a 2-quarter hot horizon under "
            "8-quarter pulls: journaling, demotion, cold faults, codecs and recovery dominate",
            pool_cells=1000,
            batch_records=400,
            ticks_per_quarter=4,
            tick_s=0.1,
            reader="deep",
            window=8,
            durable=True,
            snapshot_every=5,
        ),
    )
}


@dataclass
class Stream:
    """The generated inputs of one (workload shape, seed) pair."""

    pool: list[tuple[int, int, int]]
    #: ``templates[j]`` = [(cell index, z)] for ticks ``t % TEMPLATES == j``.
    templates: list[list[tuple[int, float]]]
    ticks_per_quarter: int
    prefill_quarters: int
    census_body: bytes
    _template_bodies: list[bytes]
    _census_z: list[float] = field(repr=False, default_factory=list)

    # -- timeline ------------------------------------------------------
    @property
    def prefill_ticks(self) -> list[int]:
        """One batch per quarter boundary; the last one seals quarter
        ``prefill_quarters - 1`` (the census at tick 0 comes first)."""
        q = self.ticks_per_quarter
        return [k * q for k in range(1, self.prefill_quarters + 1)]

    @property
    def first_load_tick(self) -> int:
        return self.prefill_quarters * self.ticks_per_quarter + 1

    def load_ticks(self) -> Iterator[int]:
        """The load phase: one batch per consecutive tick, forever."""
        return itertools.count(self.first_load_tick)

    def seals(self, tick: int, previous_tick: int) -> bool:
        """True when the batch at ``tick`` crosses a quarter boundary."""
        q = self.ticks_per_quarter
        return tick // q > previous_tick // q

    def next_sealing_tick(self, previous_tick: int) -> int:
        """The first tick of the next quarter (a WAL-tail batch seals one
        quarter without streaming every tick in between)."""
        q = self.ticks_per_quarter
        return (previous_tick // q + 1) * q

    # -- bodies and their oracle-side records ---------------------------
    def body(self, tick: int) -> bytes:
        """The ``POST /ingest`` body for ``tick`` (pre-encoded template)."""
        return self._template_bodies[tick % TEMPLATES].replace(
            _TICK_SLOT, b'"t":%d,' % tick
        )

    def records(self, tick: int) -> list[StreamRecord]:
        pool = self.pool
        return [
            StreamRecord(values=pool[cell], t=tick, z=z)
            for cell, z in self.templates[tick % TEMPLATES]
        ]

    def census_records(self) -> list[StreamRecord]:
        return [
            StreamRecord(values=cell, t=0, z=z)
            for cell, z in zip(self.pool, self._census_z)
        ]

    def payload_hash(self, n_ticks: int = 2 * TEMPLATES) -> str:
        """Digest of the census plus the first ``n_ticks`` load bodies."""
        digest = hashlib.sha256(self.census_body)
        for tick in itertools.islice(self.load_ticks(), n_ticks):
            digest.update(self.body(tick))
        return digest.hexdigest()


def _encode(rows: list[tuple[tuple[int, int, int], float]], tick_slot: bool) -> bytes:
    t = '"t":-1,' if tick_slot else '"t":0,'
    parts = [
        '{"values":[%d,%d,%d],%s"z":%r}' % (*values, t, z) for values, z in rows
    ]
    return ('{"records":[' + ",".join(parts) + "]}").encode("ascii")


def build_stream(workload: Workload, seed: int) -> Stream:
    """Generate the stream for ``workload``'s shape.

    Depends only on ``(seed, pool_cells, batch_records)`` — two workloads
    with the same shape (``dashboard_seal`` / ``push_fanout``) get
    byte-identical ingest streams — plus ``ticks_per_quarter`` and ``window`` for
    the timeline.
    """
    rng = random.Random(f"e2e:{seed}:{workload.pool_cells}:{workload.batch_records}")
    n = workload.pool_cells
    pool = [
        (code // (_LEAVES * _LEAVES), code // _LEAVES % _LEAVES, code % _LEAVES)
        for code in rng.sample(range(_LEAVES ** 3), n)
    ]
    level = [rng.uniform(0.01, 0.1) for _ in range(n)]
    # Exactly 4% of cells trend steeply enough to be exceptions at threshold
    # 0.05 (a fixed count, so the cubing work does not vary with the seed).
    steep = set(rng.sample(range(n), n // 25))
    trend = [
        rng.choice((-1, 1)) * rng.uniform(0.02, 0.1)
        if cell in steep
        else rng.gauss(0.0, 0.0001)
        for cell in range(n)
    ]
    cum_weights = list(itertools.accumulate(1.0 / rank for rank in range(1, n + 1)))
    cells = range(n)
    templates = []
    for phase in range(TEMPLATES):
        picks = rng.choices(cells, cum_weights=cum_weights, k=workload.batch_records)
        templates.append(
            [
                (c, round(level[c] + trend[c] * phase + rng.gauss(0.0, 0.005), 4))
                for c in picks
            ]
        )
    census_z = [round(z, 4) for z in level]
    return Stream(
        pool=pool,
        templates=templates,
        ticks_per_quarter=workload.ticks_per_quarter,
        prefill_quarters=workload.prefill_quarters,
        census_body=_encode(list(zip(pool, census_z)), tick_slot=False),
        _template_bodies=[
            _encode([(pool[c], z) for c, z in template], tick_slot=True)
            for template in templates
        ],
        _census_z=census_z,
    )
