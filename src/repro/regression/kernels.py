"""Columnar ISB kernels: vectorized Theorems 3.2 / 3.3 over struct-of-arrays.

The scalar functions in :mod:`repro.regression.aggregation` are the
*reference* implementation of the paper's aggregation theorems — one frozen
:class:`~repro.regression.isb.ISB` per cell, ``math.fsum`` folds, and the
exact error messages the rest of the library pins.  They are also what makes
every hot path pay Python-object prices.  This module provides the columnar
counterparts: ISB batches held as numpy arrays (:class:`ISBColumns`) and
kernels that aggregate thousands of cells in a handful of C-level passes.

Numeric compatibility contract
------------------------------

* **Grouped sums are order-preserving.**  Every grouped reduction here goes
  through ``np.bincount``, whose C loop adds weights sequentially in input
  order.  A kernel therefore produces *bit-identical* results to a scalar
  loop that folds the same values left to right — which is exactly how the
  stream engine's sealing accumulator (:class:`~repro.regression.linear.
  RunningRegression`) and the H-tree's interior aggregation already sum.
* **fsum call sites are ulp-compatible, not bit-compatible.**
  ``merge_standard`` / ``merge_time`` use ``math.fsum`` (correctly rounded);
  a vectorized fold cannot reproduce that bit for bit.  The kernels compute
  the same formulas with sequential IEEE-754 double adds, so results agree
  to a few ulps (property-pinned at 1e-9 relative tolerance in
  ``tests/regression/test_kernels.py``).  Nothing in the library compares
  ISBs across the two paths more tightly than that.
* **Per-group independence.**  All grouped kernels compute each group from
  its own rows only, with a fixed per-group operation order, so a group's
  result does not depend on what other groups share the batch.  This is what
  lets the sharded service stay bit-identical to one shard: each
  cell's arithmetic is the same whether it is sealed alongside 10 cells or
  10,000.

* **The cubing contract.**  Cuboid roll-up and the columnar cubing walks
  (m/o-cubing's lattice walk, popular-path's drills) group rows by a packed
  integer key (:func:`pack_keys`) and merge them with :func:`group_merge`.
  Against the scalar walk they replace — an H-tree, then one dict of lists
  per cuboid folded by :func:`merge_groups` — they produce the same keys in
  the same dict iteration order (m-layer in H-tree leaf order, i.e. stably
  grouped by the last cardinality-ascending attribute's value in first-seen
  order; roll-ups in first-appearance order), the same exception sets and
  the same ``CubingStats`` counters.  Floats are bit-identical wherever the
  scalar walk already summed sequentially (1- and 2-child groups, and every
  batch of :data:`GROUP_MERGE_MIN_ROWS` rows or more) and within 4 ulps
  where it used ``fsum`` (groups of three or more in smaller batches);
  ``-0.0`` may come back as ``0.0`` (``bincount`` starts from ``+0.0``).
  Unlike :func:`merge_groups`, :func:`group_merge` never switches
  arithmetic on batch size, so per-group independence holds for it without
  exception.  ``tests/cubing/test_columnar_mo.py`` is the differential
  suite.

The scalar functions are references, reached by explicit choice and never
as a fallback: nothing here branches on whether numpy imported.  The last
section holds the ingest columns and the open-quarter accumulator — the
stream engine's only write path — over one flat numpy layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import AggregationError
from repro.regression.isb import ISB

if TYPE_CHECKING:  # pragma: no cover
    import numpy.typing as npt

__all__ = [
    "ISBColumns",
    "merge_standard_cols",
    "merge_time_cols",
    "segment_merge",
    "merge_by_group",
    "merge_time_grid",
    "group_fit",
    "merge_groups",
    "pack_keys",
    "first_seen_groups",
    "distinct_count",
    "group_merge",
    "int_column",
    "float_column",
    "grown",
    "quarter_order",
    "open_slots",
    "open_add",
    "open_seal",
]

@dataclass(frozen=True)
class ISBColumns:
    """A batch of ISBs as a struct of arrays (``t_b``/``t_e``/``base``/``slope``).

    The columnar twin of ``list[ISB]``: four parallel numpy arrays instead of
    one Python object per cell.  Rows keep their order — kernels that group
    rows rely on it for order-preserving sums.
    """

    t_b: "npt.NDArray"  # int64
    t_e: "npt.NDArray"  # int64
    base: "npt.NDArray"  # float64
    slope: "npt.NDArray"  # float64

    def __post_init__(self) -> None:
        n = len(self.t_b)
        if not (len(self.t_e) == len(self.base) == len(self.slope) == n):
            raise AggregationError("ISBColumns arrays must share one length")

    def __len__(self) -> int:
        return len(self.t_b)

    @classmethod
    def from_isbs(cls, isbs: Sequence[ISB] | Iterable[ISB]) -> "ISBColumns":
        """Pack ISB objects into columns (one pass, order preserved)."""
        items = list(isbs)
        n = len(items)
        t_b = np.fromiter((i.t_b for i in items), dtype=np.int64, count=n)
        t_e = np.fromiter((i.t_e for i in items), dtype=np.int64, count=n)
        base = np.fromiter((i.base for i in items), dtype=np.float64, count=n)
        slope = np.fromiter((i.slope for i in items), dtype=np.float64, count=n)
        return cls(t_b, t_e, base, slope)

    @classmethod
    def over(cls, t_b: int, t_e: int, base, slope) -> "ISBColumns":
        """Columns that all cover one interval — a tilt *page* as a batch.

        The interval columns are zero-stride broadcasts of the two scalars,
        so a page costs its ``base`` / ``slope`` arrays (16 bytes a row) and
        nothing per row for ``t_b`` / ``t_e``; the float columns are used as
        given, not copied.
        """
        n = len(base)
        return cls(
            np.broadcast_to(np.int64(t_b), (n,)),
            np.broadcast_to(np.int64(t_e), (n,)),
            base,
            slope,
        )

    def to_isbs(self) -> list[ISB]:
        """Unpack back into ISB objects (the only per-row Python cost)."""
        return [
            ISB(tb, te, b, s)
            for tb, te, b, s in zip(
                self.t_b.tolist(),
                self.t_e.tolist(),
                self.base.tolist(),
                self.slope.tolist(),
            )
        ]

    @classmethod
    def concat(cls, parts: Sequence["ISBColumns"]) -> "ISBColumns":
        """The batches' rows end to end, in the order given."""
        return cls(
            *(
                np.concatenate([getattr(part, name) for part in parts])
                for name in ("t_b", "t_e", "base", "slope")
            )
        )

    def take(self, rows: "npt.NDArray") -> "ISBColumns":
        """The given rows, in the order given."""
        return ISBColumns(
            self.t_b[rows], self.t_e[rows], self.base[rows], self.slope[rows]
        )

    def row(self, i: int) -> ISB:
        """One row as an ISB."""
        return ISB(
            int(self.t_b[i]), int(self.t_e[i]),
            float(self.base[i]), float(self.slope[i]),
        )


# ----------------------------------------------------------------------
# Theorem 3.2 (standard dimensions)
# ----------------------------------------------------------------------


def merge_standard_cols(cols: ISBColumns) -> ISB:
    """Vectorized Theorem 3.2: aggregate one batch of same-interval ISBs.

    Columnar counterpart of :func:`~repro.regression.aggregation.
    merge_standard`; ulp-compatible with it (sequential sums instead of
    ``fsum`` — see the module docstring).
    """
    n = len(cols)
    if n == 0:
        raise AggregationError("merge_standard requires at least one child")
    t_b = int(cols.t_b[0])
    t_e = int(cols.t_e[0])
    bad = _first_interval_mismatch(cols.t_b, cols.t_e, t_b, t_e)
    if bad is not None:
        raise AggregationError(
            "standard-dimension aggregation requires identical intervals; "
            f"got {(t_b, t_e)} and "
            f"{(int(cols.t_b[bad]), int(cols.t_e[bad]))}"
        )
    return ISB(t_b, t_e, float(np.sum(cols.base)), float(np.sum(cols.slope)))


def _segment_ids(starts: "npt.NDArray", n: int) -> "npt.NDArray":
    """Row -> segment index for contiguous segments given their starts."""
    counts = np.diff(np.append(starts, n))
    return np.repeat(np.arange(len(starts), dtype=np.int64), counts)


def _first_interval_mismatch(t_b, t_e, tb0: int, te0: int) -> int | None:
    mism = (t_b != tb0) | (t_e != te0)
    if mism.any():
        return int(np.argmax(mism))
    return None


def segment_merge(cols: ISBColumns, seg_starts: Sequence[int]) -> ISBColumns:
    """Grouped Theorem 3.2: merge contiguous row segments in one pass.

    ``seg_starts`` holds the first row index of each segment (sorted
    ascending, first element 0); segment ``g`` spans
    ``[seg_starts[g], seg_starts[g+1])``.  Rows of one segment must share
    their interval (the standard-dimension precondition).  Returns one
    merged row per segment, bit-identical to folding each segment's bases
    and slopes left to right.

    This is the grouped-reduce kernel behind H-tree bulk aggregation and
    :func:`merge_groups`: build the groups once (sort key / dict of lists),
    then aggregate every group in two ``bincount`` passes instead of one
    ``merge_standard`` call per group.  (Cuboid roll-up groups by packed
    key instead: :func:`group_merge`.)
    """
    n = len(cols)
    starts = np.asarray(seg_starts, dtype=np.int64)
    if len(starts) == 0 or n == 0:
        raise AggregationError("segment_merge requires at least one segment")
    if starts[0] != 0 or (np.diff(starts) <= 0).any() or starts[-1] >= n:
        raise AggregationError(
            "segment starts must begin at 0, increase strictly and stay "
            "inside the batch"
        )
    return merge_by_group(cols, _segment_ids(starts, n), starts)


def merge_by_group(
    cols: ISBColumns, gid: "npt.NDArray", first: "npt.NDArray"
) -> ISBColumns:
    """Theorem 3.2 per group: ``gid`` is every row's group, ``first`` each
    group's first row; sums run in row order within a group.

    The grouping is the caller's: :func:`segment_merge` and
    :func:`group_merge` derive it from their input, a
    :class:`~repro.cubing.mo_cubing.CubePlan` recorded it when the cell set
    last changed and replays it over fresh columns — the same rows in the
    same order through the same two ``bincount`` passes, so the same bits.
    The shared-interval check runs on every call either way."""
    t_b = cols.t_b[first]
    t_e = cols.t_e[first]
    mism = (cols.t_b != t_b[gid]) | (cols.t_e != t_e[gid])
    if mism.any():
        bad = int(np.argmax(mism))
        g = int(gid[bad])
        raise AggregationError(
            "standard-dimension aggregation requires identical intervals; "
            f"got {(int(t_b[g]), int(t_e[g]))} and "
            f"{(int(cols.t_b[bad]), int(cols.t_e[bad]))}"
        )
    n_groups = len(first)
    base = np.bincount(gid, weights=cols.base, minlength=n_groups)
    slope = np.bincount(gid, weights=cols.slope, minlength=n_groups)
    return ISBColumns(t_b, t_e, base, slope)


# ----------------------------------------------------------------------
# Theorem 3.3 (time dimension)
# ----------------------------------------------------------------------


def merge_time_cols(cols: ISBColumns) -> ISB:
    """Vectorized Theorem 3.3: aggregate one batch of time-adjacent ISBs.

    Children need not be passed sorted; they are ordered by start tick, the
    adjacency precondition is validated vectorized, and the slope/base
    formula runs as array expressions.  Ulp-compatible with
    :func:`~repro.regression.aggregation.merge_time`.
    """
    k = len(cols)
    if k == 0:
        raise AggregationError("merge_time requires at least one child")
    order = np.argsort(cols.t_b, kind="stable")
    t_b = cols.t_b[order]
    t_e = cols.t_e[order]
    if k == 1:
        return cols.row(int(order[0]))
    gap = t_e[:-1] + 1 != t_b[1:]
    if gap.any():
        i = int(np.argmax(gap))
        raise AggregationError(
            "time-dimension aggregation requires adjacent intervals; "
            f"got {(int(t_b[i]), int(t_e[i]))} followed by "
            f"{(int(t_b[i + 1]), int(t_e[i + 1]))}"
        )
    base = cols.base[order]
    slope = cols.slope[order]
    n_i = t_e - t_b + 1
    # S_i from each child's ISB: the LSE line passes through the mean point.
    sums = (base + slope * ((t_b + t_e) / 2.0)) * n_i
    s_a = float(np.sum(sums))
    tb_a = int(t_b[0])
    te_a = int(t_e[-1])
    n_a = te_a - tb_a + 1
    denom = float(n_a**3 - n_a)
    prefix_n = np.concatenate(([0], np.cumsum(n_i)[:-1]))
    w = (n_i**3 - n_i) / denom
    coeff = (2 * prefix_n + n_i - n_a) / denom
    terms = w * slope + 6.0 * coeff * ((n_a * sums - n_i * s_a) / n_a)
    slope_a = float(np.sum(terms))
    z_mean_a = s_a / n_a
    t_mean_a = (tb_a + te_a) / 2.0
    base_a = z_mean_a - slope_a * t_mean_a
    return ISB(tb_a, te_a, base_a, slope_a)


def merge_time_grid(columns: Sequence[ISBColumns]) -> ISBColumns:
    """Grouped Theorem 3.3 over *aligned* groups: one time merge per row.

    ``columns[r]`` holds child ``r`` of every group; within a column all
    rows must share one interval, and the column intervals must be adjacent
    in order (``columns[r].t_e + 1 == columns[r+1].t_b``).  This is exactly
    the shape of bulk tilt-frame promotion and bulk window assembly: G
    aligned frames each merge the same R slot positions.  Row ``g`` of the
    result is the Theorem 3.3 merge of ``(columns[0][g], ..,
    columns[R-1][g])``, computed from row ``g``'s values alone (per-group
    independence — see the module docstring).
    """
    if not columns:
        raise AggregationError("merge_time requires at least one child")
    g = len(columns[0])
    for col in columns:
        if len(col) != g:
            raise AggregationError(
                "aligned time merge requires equally long columns"
            )
    intervals = []
    for col in columns:
        tb0 = int(col.t_b[0]) if g else 0
        te0 = int(col.t_e[0]) if g else -1
        if g and _first_interval_mismatch(col.t_b, col.t_e, tb0, te0) is not None:
            raise AggregationError(
                "aligned time merge requires one interval per column"
            )
        intervals.append((tb0, te0))
    for (pb, pe), (nb, ne) in zip(intervals, intervals[1:]):
        if pe + 1 != nb:
            raise AggregationError(
                "time-dimension aggregation requires adjacent intervals; "
                f"got {(pb, pe)} followed by {(nb, ne)}"
            )
    if len(columns) == 1:
        col = columns[0]
        return ISBColumns(
            col.t_b.copy(), col.t_e.copy(), col.base.copy(), col.slope.copy()
        )

    tb_a, te_a = intervals[0][0], intervals[-1][1]
    n_a = te_a - tb_a + 1
    denom = float(n_a**3 - n_a)
    # Child sums S_i per group (G-vectors), then the Theorem 3.3 fold in
    # child order — sequential elementwise adds keep every group's operation
    # order fixed and independent of G.
    sums = []
    s_a = np.zeros(g, dtype=np.float64)
    for (tb, te), col in zip(intervals, columns):
        n_i = te - tb + 1
        s_i = (col.base + col.slope * ((tb + te) / 2.0)) * n_i
        sums.append(s_i)
        s_a = s_a + s_i
    slope_a = np.zeros(g, dtype=np.float64)
    prefix_n = 0
    for (tb, te), col, s_i in zip(intervals, columns, sums):
        n_i = te - tb + 1
        w = (n_i**3 - n_i) / denom
        coeff = (2 * prefix_n + n_i - n_a) / denom
        slope_a = slope_a + w * col.slope
        slope_a = slope_a + 6.0 * coeff * ((n_a * s_i - n_i * s_a) / n_a)
        prefix_n += n_i
    z_mean_a = s_a / n_a
    t_mean_a = (tb_a + te_a) / 2.0
    base_a = z_mean_a - slope_a * t_mean_a
    out_tb = np.full(g, tb_a, dtype=np.int64)
    out_te = np.full(g, te_a, dtype=np.int64)
    return ISBColumns(out_tb, out_te, base_a, slope_a)


# ----------------------------------------------------------------------
# Grouped sealing fit (the engine's quarter boundary)
# ----------------------------------------------------------------------


def group_fit(
    ticks: "npt.NDArray",
    sums: "npt.NDArray",
    seg_starts: Sequence[int],
    lo: int,
    hi: int,
) -> tuple["npt.NDArray", "npt.NDArray"]:
    """Grouped best-effort LSE fit over one sealing window ``[lo, hi]``.

    ``ticks``/``sums`` concatenate every cell's per-tick sums (each cell's
    segment in ascending tick order); ``seg_starts`` marks segment starts as
    in :func:`segment_merge`.  Returns ``(base, slope)`` arrays, one row per
    cell, replicating :meth:`repro.regression.linear.RunningRegression.
    fit_window` bit for bit: the five running sums are accumulated with
    order-preserving ``bincount`` adds and the closed-form expressions use
    the same association order as the scalar code.  Cells whose single
    distinct tick makes the variance zero get the flat line at their mean,
    exactly as the scalar path does.  (Empty cells never reach this kernel —
    the engine seals those with the shared zero ISB.)
    """
    n_rows = len(ticks)
    starts = np.asarray(seg_starts, dtype=np.int64)
    if len(starts) == 0 or n_rows == 0:
        raise AggregationError("group_fit requires at least one segment")
    if starts[0] != 0 or (np.diff(starts) <= 0).any() or starts[-1] >= n_rows:
        raise AggregationError(
            "segment starts must begin at 0, increase strictly and stay "
            "inside the batch"
        )
    if int(ticks.min()) < lo or int(ticks.max()) > hi:
        raise AggregationError(
            f"recorded ticks fall outside the window [{lo}, {hi}]"
        )
    n_seg = len(starts)
    seg_ids = _segment_ids(starts, n_rows)

    t = ticks.astype(np.float64)
    n = np.bincount(seg_ids, minlength=n_seg).astype(np.float64)
    sum_t = np.bincount(seg_ids, weights=t, minlength=n_seg)
    sum_z = np.bincount(seg_ids, weights=sums, minlength=n_seg)
    sum_tz = np.bincount(seg_ids, weights=t * sums, minlength=n_seg)
    sum_t2 = np.bincount(seg_ids, weights=t * t, minlength=n_seg)

    t_mean = sum_t / n
    z_mean = sum_z / n
    denom = sum_t2 - (n * t_mean) * t_mean
    numer = sum_tz - (n * t_mean) * z_mean
    flat = denom == 0.0
    safe = np.where(flat, 1.0, denom)
    slope = np.where(flat, 0.0, numer / safe)
    base = np.where(flat, z_mean, z_mean - slope * t_mean)
    return base, slope


# ----------------------------------------------------------------------
# Grouped standard-dimension merge over keyed groups
# ----------------------------------------------------------------------

#: Total group rows below which ``merge_groups`` stays on the scalar path —
#: packing a handful of ISBs into arrays costs more than it saves.
GROUP_MERGE_MIN_ROWS = 32


def merge_groups(groups: "dict", min_rows: int = GROUP_MERGE_MIN_ROWS) -> "dict":
    """Merge ``{key: [ISB, ...]}`` groups with one :func:`segment_merge`.

    The grouped counterpart of calling :func:`~repro.regression.aggregation.
    merge_standard` per group, for groups held as lists of objects.  It has
    no caller in ``src/``: cuboid roll-up and the popular-path drill group
    by packed key through :func:`group_merge`.  The name stays because the
    end-to-end tracer (``benchmarks/e2e/replay.py``) wraps it.  Groups may
    have different intervals from each other; rows *within* one group must
    share theirs.

    A tiny batch takes the scalar path (``fsum``-based, correctly rounded);
    the kernel path folds each group sequentially in list order, agreeing
    with the scalar result to ulps.
    """
    from repro.regression.aggregation import merge_standard

    # 1- and 2-child groups dominate real roll-ups and cost more to pack
    # into arrays than to merge; both inline forms are bit-identical to the
    # kernel *and* the fsum reference (a 2-term fsum is one IEEE add).
    out: dict = {}
    pending_keys: list = []
    flat: list[ISB] = []
    starts: list[int] = []
    for key, isbs in groups.items():
        k = len(isbs)
        if k == 1:
            out[key] = isbs[0]
        elif k == 2:
            a, b = isbs
            if a.t_b != b.t_b or a.t_e != b.t_e:
                raise AggregationError(
                    "standard-dimension aggregation requires identical "
                    f"intervals; got {a.interval} and {b.interval}"
                )
            out[key] = ISB(a.t_b, a.t_e, a.base + b.base, a.slope + b.slope)
        else:
            out[key] = None  # placeholder keeps the group order
            pending_keys.append(key)
            starts.append(len(flat))
            flat.extend(isbs)
    if flat:
        if len(flat) < min_rows:
            for key in pending_keys:
                out[key] = merge_standard(groups[key])
        else:
            merged = segment_merge(ISBColumns.from_isbs(flat), starts)
            for key, isb in zip(pending_keys, merged.to_isbs()):
                out[key] = isb
    return out


# ----------------------------------------------------------------------
# Grouped standard-dimension merge over packed integer keys
# ----------------------------------------------------------------------

#: Packed keys are re-numbered before a further column could push them past
#: this bound, so int64 never wraps however many dimensions are packed.
_PACK_LIMIT = 2**62


def pack_keys(
    columns: Sequence["npt.NDArray"], cards: Sequence[int], n: int
) -> "npt.NDArray":
    """One int64 key per row from per-dimension code columns.

    ``columns[d]`` holds codes in ``range(cards[d])``; two rows get the same
    key iff they agree in every column.  Keys are mixed-radix numbers while
    the radix product fits, and are re-numbered densely (``np.unique``)
    whenever one more column would overflow — only equality of keys within
    one call is meaningful, never their value.
    """
    key = np.zeros(n, dtype=np.int64)
    bound = 1
    for column, card in zip(columns, cards):
        if bound * card > _PACK_LIMIT:
            uniq, key = np.unique(key, return_inverse=True)
            bound = len(uniq)
        key = key * card + column
        bound *= card
    return key


def first_seen_groups(keys: "npt.NDArray") -> tuple["npt.NDArray", "npt.NDArray"]:
    """``(group id per row, first row per group)`` for equal ``keys``.

    Groups are numbered by first appearance, so iterating groups visits keys
    in the order a ``dict`` filled row by row would hold them — the order
    every scalar roll-up in the library produces.  ``keys`` must be
    non-negative.
    """
    n = len(keys)
    if n == 0:
        return keys, keys
    if int(keys.max()) >= _PACK_LIMIT // n:
        keys = np.unique(keys, return_inverse=True)[1]
    # One plain sort of (key, row) pairs folded into single integers: rows
    # of a group end up adjacent and ascending, so each run's head is the
    # group's first row.  (A stable argsort gives the same at ~8x the cost.)
    pairs = np.sort(keys * n + np.arange(n))
    rows = pairs % n
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(pairs[1:] // n, pairs[:-1] // n, out=head[1:])
    first = rows[head]  # per group, groups in key order
    by_appearance = np.argsort(first)
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(len(first))
    gid = np.empty(n, dtype=np.int64)
    gid[rows] = rank[np.cumsum(head) - 1]
    return gid, first[by_appearance]


def distinct_count(keys: "npt.NDArray") -> int:
    """Number of distinct values in ``keys``."""
    if len(keys) == 0:
        return 0
    ordered = np.sort(keys)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def group_merge(
    cols: ISBColumns, keys: "npt.NDArray"
) -> tuple[ISBColumns, "npt.NDArray"]:
    """Grouped Theorem 3.2 over packed keys: rows with equal key merge.

    The packed roll-up kernel behind cuboid roll-up and the columnar cubing
    walks.  Returns one merged row per distinct key, groups in
    first-appearance order, plus the first source row of every group (its
    representative, from which callers read the group's key columns).  Each
    group's bases and slopes are folded left to right in row order by
    ``np.bincount`` — the same sums as :func:`segment_merge` over the rows
    gathered group by group, without the gather.  Rows of one group must
    share their interval.
    """
    gid, first = first_seen_groups(keys)
    return merge_by_group(cols, gid, first), first


# ----------------------------------------------------------------------
# Ingest columns and the open-quarter accumulator
# ----------------------------------------------------------------------

#: One flat column: int64 (codes, ticks, rows), float64 (sums) or uint8
#: (masks).
Column = np.ndarray


def int_column(items: Iterable[int]) -> Column:
    """An int64 column; :class:`OverflowError` for a value outside int64."""
    return np.fromiter(items, dtype=np.int64)


def float_column(items: Iterable[float]) -> Column:
    """A float64 column."""
    return np.fromiter(items, dtype=np.float64)


def grown(column: Column, n: int, fill: int = 0) -> Column:
    """``column`` extended by ``fill`` to at least ``n`` entries (capacity
    doubles, so appending rows one at a time stays amortized)."""
    have = len(column)
    if n <= have:
        return column
    out = np.full(max(n, 2 * have), fill, dtype=column.dtype)
    out[:have] = column
    return out


def quarter_order(
    ticks: Column, ticks_per_quarter: int, floor: int
) -> tuple[Column, int]:
    """Every tick's quarter, and the first record breaking quarter order.

    A record is out of order when its quarter lies below ``floor`` (the
    clock: that quarter is sealed) or below the record's before it; ``-1``
    when the batch is in order.
    """
    quarters = ticks // ticks_per_quarter
    bad = quarters < floor
    bad[1:] |= quarters[1:] < quarters[:-1]
    return quarters, int(bad.argmax()) if bad.any() else -1


def open_slots(
    rows: Column, ticks: Column, lo: int, ticks_per_quarter: int
) -> Column:
    """Every record's slot in the open-quarter layout.

    The open quarter is flat and row-major: the sum of cell row ``r`` at
    tick ``t`` of the quarter starting at ``lo`` lives at slot
    ``r * ticks_per_quarter + (t - lo)``.  ``rows[i]`` is record ``i``'s
    cell row.
    """
    offsets = ticks - lo
    if len(offsets) and (
        int(offsets.min()) < 0 or int(offsets.max()) >= ticks_per_quarter
    ):
        raise AggregationError(
            "recorded ticks fall outside the window "
            f"[{lo}, {lo + ticks_per_quarter - 1}]"
        )
    return rows * ticks_per_quarter + offsets


def open_add(sums: Column, present: Column, slots: Column, z: Column) -> None:
    """Ordered scatter-add of ``z`` into the open quarter's ``sums``.

    ``np.add.at`` is unbuffered: it performs ``sums[slot] += z`` record by
    record, in order — the very IEEE additions a per-record loop does,
    earlier batches' partial sums included, so the result is bit-identical
    to record-at-a-time ingestion (which ``np.bincount`` into a non-empty
    accumulator is not).
    """
    np.add.at(sums, slots, z)
    present[slots] = 1


def open_seal(
    sums: Column, present: Column, n_rows: int, ticks_per_quarter: int, lo: int
) -> tuple[Column, Column]:
    """Fit and clear the open quarter: ``(base, slope)`` columns, a row per cell.

    Row-major non-zeros of ``present`` are each cell's ticks in ascending
    order, cells in row order — :func:`group_fit`'s input as it stands, no
    per-cell loop and no sort.  Rows with nothing recorded stay the zero
    line.
    """
    hi = lo + ticks_per_quarter - 1
    base, slope = np.zeros(n_rows), np.zeros(n_rows)
    slots = np.flatnonzero(present[: n_rows * ticks_per_quarter])
    if len(slots):
        rows = slots // ticks_per_quarter
        heads = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        base[rows[heads]], slope[rows[heads]] = group_fit(
            lo + slots % ticks_per_quarter, sums[slots], heads, lo, hi
        )
        sums[slots] = 0.0
        present[slots] = 0
    return base, slope
