"""Synthetic dataset generator for the paper's evaluation (Section 5).

"The datasets are generated by a data generator similar in spirit to the IBM
data generator [4] ... D3L3C10T100K means that there are 3 dimensions, each
dimension contains 3 levels (from the m-layer to the o-layer, inclusive),
the node fan-out factor (cardinality) is 10 (i.e., 10 children per node),
and there are in total 100K merged m-layer tuples."

The generator fabricates exactly that: fanout-encoded hierarchies per
dimension, m-layer cells drawn uniformly (or Zipf-skewed) over the leaf
space, and per-cell ISBs whose slopes follow a heavy-tailed distribution so
that exception-rate calibration (Fig 8's x-axis) has a meaningful spread.
Everything is seeded and deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.cube.hierarchy import FanoutHierarchy
from repro.cube.layers import CriticalLayers
from repro.cube.schema import CubeSchema, Dimension
from repro.errors import SchemaError
from repro.regression.isb import ISB

__all__ = ["DatasetSpec", "GeneratedDataset", "generate_dataset"]

Values = tuple[Hashable, ...]

_SPEC_RE = re.compile(
    r"^D(?P<dims>\d+)L(?P<levels>\d+)C(?P<fanout>\d+)T(?P<tuples>\d+)(?P<kilo>K?)$"
)


@dataclass(frozen=True)
class DatasetSpec:
    """A ``DxLyCzTn`` dataset specification.

    Attributes
    ----------
    n_dims:
        Number of standard dimensions (``D``).
    n_levels:
        Levels per dimension from the m-layer to the o-layer inclusive
        (``L``); the lattice then has ``L ** D`` cuboids.
    fanout:
        Children per hierarchy node (``C``); level ``l`` has ``C ** l``
        distinct values.
    n_tuples:
        Number of m-layer tuples to draw (``T``); distinct cells may be
        slightly fewer when draws collide (collisions merge, as in the
        paper's "merged m-layer data streams").
    """

    n_dims: int
    n_levels: int
    fanout: int
    n_tuples: int

    def __post_init__(self) -> None:
        if self.n_dims < 1:
            raise SchemaError("need at least one dimension")
        if self.n_levels < 2:
            raise SchemaError(
                "need at least two levels so the m- and o-layers differ"
            )
        if self.fanout < 2:
            raise SchemaError("fanout must be at least 2")
        if self.n_tuples < 1:
            raise SchemaError("need at least one tuple")

    @classmethod
    def parse(cls, name: str) -> "DatasetSpec":
        """Parse a paper-style name like ``"D3L3C10T100K"``."""
        match = _SPEC_RE.match(name)
        if match is None:
            raise SchemaError(f"cannot parse dataset spec {name!r}")
        tuples = int(match.group("tuples"))
        if match.group("kilo"):
            tuples *= 1000
        return cls(
            n_dims=int(match.group("dims")),
            n_levels=int(match.group("levels")),
            fanout=int(match.group("fanout")),
            n_tuples=tuples,
        )

    @property
    def name(self) -> str:
        t = self.n_tuples
        suffix = f"{t // 1000}K" if t % 1000 == 0 and t >= 1000 else str(t)
        return f"D{self.n_dims}L{self.n_levels}C{self.fanout}T{suffix}"

    def build_layers(self) -> CriticalLayers:
        """The schema and critical layers this spec induces.

        Each dimension gets a depth-``L`` fanout hierarchy; the o-layer sits
        at level 1 and the m-layer at level ``L``, giving the paper's "L
        levels from the m-layer to the o-layer, inclusive".
        """
        dims = [
            Dimension(
                name=f"d{i}",
                hierarchy=FanoutHierarchy(f"d{i}", self.n_levels, self.fanout),
            )
            for i in range(self.n_dims)
        ]
        schema = CubeSchema(dims)
        m_coord = tuple([self.n_levels] * self.n_dims)
        o_coord = tuple([1] * self.n_dims)
        return CriticalLayers(schema, m_coord, o_coord)


@dataclass
class GeneratedDataset:
    """A generated m-layer dataset plus the layers it belongs to."""

    spec: DatasetSpec
    layers: CriticalLayers
    cells: dict[Values, ISB]
    seed: int
    window: tuple[int, int]
    collisions: int = 0
    _subset_cache: dict[int, "GeneratedDataset"] = field(
        default_factory=dict, repr=False
    )

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def subset(self, n_cells: int) -> "GeneratedDataset":
        """The first ``n_cells`` cells — Fig 9's "appropriate subsets of the
        same 100K data set"."""
        if n_cells > len(self.cells):
            raise SchemaError(
                f"cannot take {n_cells} cells from {len(self.cells)}"
            )
        if n_cells not in self._subset_cache:
            taken = dict(list(self.cells.items())[:n_cells])
            self._subset_cache[n_cells] = GeneratedDataset(
                spec=self.spec,
                layers=self.layers,
                cells=taken,
                seed=self.seed,
                window=self.window,
                collisions=0,
            )
        return self._subset_cache[n_cells]


def generate_dataset(
    spec: DatasetSpec | str,
    seed: int = 7,
    window_ticks: int = 16,
    zipf_a: float | None = None,
    slope_scale: float = 0.05,
    base_range: tuple[float, float] = (0.0, 10.0),
) -> GeneratedDataset:
    """Generate an m-layer dataset for a ``DxLyCzTn`` spec.

    Parameters
    ----------
    spec:
        A :class:`DatasetSpec` or a paper-style name string.
    seed:
        RNG seed; identical inputs produce identical datasets.
    window_ticks:
        Length of the analysis window each cell's ISB covers (``[0, w-1]``).
    zipf_a:
        When given (> 1), leaf values are drawn Zipf-skewed instead of
        uniformly, concentrating streams on popular leaves.
    slope_scale:
        Scale of the Laplace distribution slopes are drawn from; the heavy
        tail gives the exception-threshold calibration a usable spread.
    base_range:
        Uniform range for the regression bases.
    """
    if isinstance(spec, str):
        spec = DatasetSpec.parse(spec)
    layers = spec.build_layers()
    leaf_card = spec.fanout**spec.n_levels
    if zipf_a is not None and zipf_a <= 1.0:
        raise SchemaError("zipf_a must exceed 1")

    rng = np.random.default_rng(seed)
    shape = (spec.n_tuples, spec.n_dims)
    if zipf_a is None:
        draws = rng.integers(0, leaf_card, size=shape)
    else:
        draws = (rng.zipf(zipf_a, size=shape) - 1) % leaf_card
    bases = rng.uniform(*base_range, size=spec.n_tuples)
    slopes = rng.laplace(0.0, slope_scale, size=spec.n_tuples)

    t_b, t_e = 0, window_ticks - 1
    cells: dict[Values, ISB] = {}
    collisions = 0
    for row, base, slope in zip(draws, bases, slopes):
        key = tuple(int(v) for v in row)
        isb = ISB(t_b, t_e, float(base), float(slope))
        if key in cells:
            prior = cells[key]
            cells[key] = ISB(
                t_b, t_e, prior.base + isb.base, prior.slope + isb.slope
            )
            collisions += 1
        else:
            cells[key] = isb
    return GeneratedDataset(
        spec=spec,
        layers=layers,
        cells=cells,
        seed=seed,
        window=(t_b, t_e),
        collisions=collisions,
    )
