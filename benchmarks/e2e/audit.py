"""Correctness checks against :class:`repro.verify.oracle.RawStreamOracle`.

All of this runs outside the timed window.  The oracle is rebuilt from the
seed and the list of *acknowledged* ticks (see :mod:`workloads`), then a
fixed audit query set is compared through the oracle's own ulp-reporting
comparators.  ``ingest_firehose`` streams millions of records, so it gets a
64-cell sampled oracle and per-cell checks; the other workloads get the
full oracle and cuboid-level checks.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable

from repro.cubing.policy import GlobalSlopeThreshold
from repro.io import isb_from_dict
from repro.stream.generator import DatasetSpec
from repro.verify.oracle import (
    DEFAULT_TOLERANCE,
    RawStreamOracle,
    Tolerance,
    VerifyMismatch,
    assert_cells_equal,
    isb_agree,
)

from workloads import Stream, Workload

__all__ = ["Audit", "build_layers", "build_policy", "SAMPLED_CELLS"]

SAMPLED_CELLS = 64
_O_COORD = [1, 1, 1]
_M_COORD = [3, 3, 3]

Query = Callable[[dict[str, Any]], dict[str, Any]]


def build_layers():
    """The schema ``serve --dims 3 --levels 3 --fanout 10`` builds."""
    return DatasetSpec(n_dims=3, n_levels=3, fanout=10, n_tuples=1).build_layers()


def build_policy() -> GlobalSlopeThreshold:
    return GlobalSlopeThreshold(0.05)


def _cells(body: dict[str, Any]) -> dict[tuple, Any]:
    return {tuple(row["values"]): isb_from_dict(row["isb"]) for row in body["cells"]}


class Audit:
    """An oracle holding exactly the acknowledged stream, plus a tally."""

    def __init__(
        self,
        workload: Workload,
        stream: Stream,
        acked_ticks: Iterable[int],
        sampled: bool,
    ) -> None:
        self.window = workload.window
        self.sampled = sampled
        self.checks = 0
        self.mismatches: list[str] = []
        keep = None
        if sampled:
            # Every 1/64th rank of the pool: hot, warm and cold cells alike.
            step = max(1, len(stream.pool) // SAMPLED_CELLS)
            keep = set(stream.pool[::step][:SAMPLED_CELLS])
        self.oracle = oracle = RawStreamOracle(
            build_layers(), build_policy(), ticks_per_quarter=stream.ticks_per_quarter
        )

        def feed(records):
            oracle.ingest(r for r in records if keep is None or r.values in keep)

        feed(stream.census_records())
        last = 0
        for tick in [*stream.prefill_ticks, *acked_ticks]:
            feed(stream.records(tick))
            last = tick
        # The stream is frozen from here on, so a sealed quarter's fit is a
        # pure function of (cell, quarter): memoize it across audit queries.
        oracle.quarter_isb = functools.lru_cache(maxsize=None)(oracle.quarter_isb)
        # The sealing equations accumulate uncentered sums of t and t^2, so
        # agreement degrades with distance from the origin (cf. soak.py).
        self.tol = Tolerance(
            max_ulps=DEFAULT_TOLERANCE.max_ulps * max(1.0, last / 2000.0),
            abs_tol=DEFAULT_TOLERANCE.abs_tol,
        )

    def _check(self, what: str, fn: Callable[[], None]) -> None:
        self.checks += 1
        try:
            fn()
        except (VerifyMismatch, KeyError) as exc:
            self.mismatches.append(f"{what}: {exc}")

    # ------------------------------------------------------------------
    # Final state
    # ------------------------------------------------------------------
    def final_state(self, query: Query) -> None:
        """The fixed audit query set against the quiesced service."""
        oracle, window, tol = self.oracle, self.window, self.tol
        if self.sampled:
            keys = oracle.keys()
            body = query(
                {
                    "queries": [
                        {"op": "cell", "coord": _M_COORD, "values": list(key), "window": window}
                        for key in keys
                    ]
                }
            )
            expected = oracle.m_cells(window)
            for key, item in zip(keys, body["results"]):
                self._check(
                    f"m-cell {key}",
                    lambda key=key, item=item: _raise_if(
                        isb_agree(isb_from_dict(item["isb"]), expected[key], tol)
                    ),
                )
            return
        deck = query({"op": "observation_deck", "window": window})
        o_cells = oracle.o_layer_cells(window)
        self._check(
            "observation deck",
            lambda: assert_cells_equal(_cells(deck), o_cells, "observation deck", tol),
        )
        watch = query({"op": "watch_list", "window": window})
        self._check(
            "watch list",
            lambda: assert_cells_equal(
                _cells(watch), oracle.o_layer_exceptions(window), "watch list", tol
            ),
        )
        tops = query({"op": "top_slopes", "coord": _O_COORD, "k": 5, "window": window})
        for row in tops["cells"]:
            values = tuple(row["values"])
            self._check(
                f"top_slopes {values}",
                lambda row=row, values=values: _raise_if(
                    isb_agree(isb_from_dict(row["isb"]), o_cells[values], tol)
                ),
            )
        changes = query({"op": "change_exceptions", "layer": "o"})
        self._check(
            "o-layer change exceptions",
            lambda: assert_cells_equal(
                _cells(changes), oracle.o_layer_change_exceptions(1), "change exceptions", tol
            ),
        )

    # ------------------------------------------------------------------
    # Pushed updates
    # ------------------------------------------------------------------
    def pushed_updates(self, updates: list[dict[str, Any]], window: int) -> None:
        """Every update equals the oracle's deck *at the update's own
        quarter*, and ``seq`` is gapless in delivery order."""
        oracle = self.oracle
        seqs = [u["seq"] for u in updates]
        self._check(
            "pushed seq gapless",
            lambda: _raise_if(
                None
                if seqs == list(range(seqs[0], seqs[0] + len(seqs)))
                else f"seq run {seqs}"
            ),
        )
        if self.sampled:
            return  # a deck needs every cell; the sampled oracle holds 64
        for update in updates:
            t_b, t_e = oracle.window_bounds_at(update["quarter"], window)
            self._check(
                f"pushed update seq {update['seq']}",
                lambda update=update, t_b=t_b, t_e=t_e: assert_cells_equal(
                    _cells(update["result"]),
                    oracle.cuboid_cells_at(tuple(_O_COORD), t_b, t_e),
                    f"pushed deck at quarter {update['quarter']}",
                    self.tol,
                ),
            )


def _raise_if(problem: str | None) -> None:
    if problem:
        raise VerifyMismatch(problem)
