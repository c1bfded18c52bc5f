"""Declarative query plans: the frozen ``QuerySpec`` family and ``Q`` builder.

Every query operation has exactly one plan object here — a frozen dataclass
that normalizes and validates its fields at construction, resolves
dimension/level *names* to coordinates against a
:class:`~repro.cube.schema.CubeSchema`, carries a canonical
:meth:`~QuerySpec.cache_key`, and round-trips through the JSON wire format
(``decode(encode(spec)) == spec``).  Specs are *plans*, not answers: the
single engine in :mod:`repro.query.exec` turns a spec into a
:class:`~repro.query.exec.QueryResult`, and every surface (Python, the
cached router, the HTTP service, subscriptions) speaks specs — there are no
per-operation methods anywhere.

Build specs with the fluent :data:`Q` builder::

    Q.cell((1, 1), (0, 0)).window(8)
    Q.slice((1, 2)).where(d0=3)
    Q.top_slopes((2, 2), k=10)
    Q.change_exceptions(layer="o")
    Q.batch(Q.watch_list(), Q.exceptions(), Q.top_slopes((1, 1)))

``Q.bind(schema)`` returns a schema-bound builder that validates eagerly and
resolves level names, so ``q.cell(coord=("city", "day"), ...)`` fails at
construction rather than at execution.

Adding an operation is a one-file change: subclass :class:`QuerySpec` here
(the registry picks up the ``op`` name) and register its implementation in
:mod:`repro.query.exec`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Callable, ClassVar, Hashable, Iterator, Mapping

from repro.cube.schema import CubeSchema
from repro.errors import QueryError

__all__ = [
    "QuerySpec",
    "CellSpec",
    "SliceSpec",
    "RollUpSpec",
    "DrillDownSpec",
    "SiblingsSpec",
    "SiblingDeviationSpec",
    "TopSlopesSpec",
    "ObservationDeckSpec",
    "WatchListSpec",
    "ExceptionsSpec",
    "ChangeExceptionsSpec",
    "BatchQuery",
    "QueryBuilder",
    "Q",
    "spec_from_dict",
]

Values = tuple[Hashable, ...]
Coord = tuple[int | str, ...]

#: op-name registry filled by ``QuerySpec.__init_subclass__``.
_REGISTRY: dict[str, type["QuerySpec"]] = {}

#: Dataclass field -> wire key (identity unless listed).
_WIRE_KEYS = {"window_quarters": "window"}


# ----------------------------------------------------------------------
# Field normalizers (run at construction, so equal plans compare equal)
# ----------------------------------------------------------------------
def _as_int(value: Any, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise QueryError(f"{what} must be an integer, got {value!r}") from None


def _norm_window(value: Any, op: str) -> int | None:
    if value is None:
        return None
    window = _as_int(value, f"{op} window")
    if window < 1:
        raise QueryError(f"{op} window must be >= 1 quarter, got {window}")
    return window


def _norm_coord(value: Any, op: str) -> Coord | None:
    if value is None:
        return None
    if isinstance(value, (str, bytes)):
        raise QueryError(f"{op} coord must be a sequence, got {value!r}")
    try:
        entries = tuple(value)
    except TypeError:
        raise QueryError(f"{op} coord must be a sequence, got {value!r}") from None
    out: list[int | str] = []
    for entry in entries:
        # Strings are level *names*, resolved against a schema later.
        out.append(entry if isinstance(entry, str) else _as_int(entry, f"{op} coord entry"))
    return tuple(out)


def _norm_values(value: Any, op: str) -> Values | None:
    if value is None:
        return None
    if isinstance(value, (str, bytes)):
        raise QueryError(f"{op} values must be a sequence, got {value!r}")
    try:
        return tuple(value)
    except TypeError:
        raise QueryError(f"{op} values must be a sequence, got {value!r}") from None


def _norm_dim(value: Any, op: str) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str):
        raise QueryError(f"{op} dim must be a dimension name, got {value!r}")
    return value


def _norm_fixed(value: Any, op: str) -> tuple[tuple[str, Hashable], ...] | None:
    if value is None:
        return None
    if isinstance(value, Mapping):
        items = value.items()
    else:
        try:
            items = [(name, v) for name, v in value]
        except (TypeError, ValueError):
            raise QueryError(
                f"{op} fixed must map dimension names to values, got {value!r}"
            ) from None
    out: dict[str, Hashable] = {}
    for name, v in items:
        if not isinstance(name, str):
            raise QueryError(f"{op} fixed keys must be dimension names, got {name!r}")
        out[name] = v
    return tuple(sorted(out.items()))


def _norm_at_least_one(field: str) -> Callable[[Any, str], int | None]:
    def norm(value: Any, op: str) -> int | None:
        if value is None:
            return None
        n = _as_int(value, f"{op} {field}")
        if n < 1:
            raise QueryError(f"{op} needs {field} >= 1, got {n}")
        return n

    return norm


def _norm_layer(value: Any, op: str) -> str:
    if value not in ("m", "o"):
        raise QueryError(f"{op} layer must be 'm' or 'o', got {value!r}")
    return value


_NORMALIZERS = {
    "window_quarters": _norm_window,
    "coord": _norm_coord,
    "values": _norm_values,
    "dim": _norm_dim,
    "fixed": _norm_fixed,
    "k": _norm_at_least_one("k"),
    "quarters_apart": _norm_at_least_one("quarters_apart"),
    "layer": _norm_layer,
}


def _resolve_coord(coord: Coord, schema: CubeSchema) -> tuple[int, ...]:
    """Turn per-dimension level *names* in ``coord`` into level indices."""
    if len(coord) != schema.n_dims:
        raise QueryError(
            f"coord {coord} has {len(coord)} entries for {schema.n_dims} dimensions"
        )
    return tuple(
        dim.hierarchy.level_index(entry) if isinstance(entry, str) else entry
        for dim, entry in zip(schema.dimensions, coord)
    )


# ----------------------------------------------------------------------
# The spec family
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuerySpec:
    """Base of all query plan objects.

    Subclasses add their operation's fields (all defaulted, so the fluent
    builder can fill them step by step) and list the ones execution requires
    in ``_REQUIRED``.  All fields are normalized to canonical immutable forms
    at construction, which makes ``==`` and :meth:`cache_key` reliable.
    """

    op: ClassVar[str] = ""
    _REQUIRED: ClassVar[tuple[str, ...]] = ()

    window_quarters: int | None = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.op:
            _REGISTRY[cls.op] = cls

    def __post_init__(self) -> None:
        for f in fields(self):
            norm = _NORMALIZERS.get(f.name)
            if norm is not None:
                object.__setattr__(self, f.name, norm(getattr(self, f.name), self.op))

    # ------------------------------------------------------------------
    # Fluent construction (each step returns a new frozen spec)
    # ------------------------------------------------------------------
    def _with(self, **kwargs: Any) -> "QuerySpec":
        allowed = {f.name for f in fields(self)}
        for name in kwargs:
            if name not in allowed:
                raise QueryError(f"a {self.op!r} query has no {name!r} field")
        return replace(self, **kwargs)

    def window(self, quarters: int) -> "QuerySpec":
        """The analysis window, in quarters (this spec if it already is)."""
        if quarters == self.window_quarters:
            return self
        return replace(self, window_quarters=quarters)

    def at(self, coord: Any) -> "QuerySpec":
        """The cuboid coordinate (level indices, or level names to resolve)."""
        return self._with(coord=coord)

    def of(self, *values: Hashable) -> "QuerySpec":
        """The cell value tuple (``spec.of(3, 7)`` or ``spec.of((3, 7))``)."""
        if len(values) == 1 and isinstance(values[0], (tuple, list)):
            values = tuple(values[0])
        return self._with(values=values)

    def along(self, dim: str) -> "QuerySpec":
        """The dimension a roll-up / drill-down / siblings step moves on."""
        return self._with(dim=dim)

    def where(self, fixed: Mapping[str, Hashable] | None = None, **kw: Hashable) -> "QuerySpec":
        """Fix dimension values for a slice (mapping and/or keywords).

        Chained calls accumulate: ``.where(d0=3).where(d1=4)`` fixes both.
        """
        merged: dict[str, Hashable] = dict(getattr(self, "fixed", None) or ())
        merged.update(fixed or {})
        merged.update(kw)
        return self._with(fixed=merged)

    def top(self, k: int) -> "QuerySpec":
        """How many ranked cells to return."""
        return self._with(k=k)

    # ------------------------------------------------------------------
    # Schema-aware validation
    # ------------------------------------------------------------------
    def resolve(self, schema: CubeSchema, *, require: bool = True) -> "QuerySpec":
        """Validate this spec against a schema, resolving names to indices.

        Level names in ``coord`` become level indices; the coordinate, cell
        values, and dimension names are checked against the schema.  With
        ``require=True`` (the execution path) missing mandatory fields raise
        :class:`QueryError`; ``require=False`` validates whatever is present
        (the bound builder's eager check on partially built specs).
        """
        spec = self
        if require:
            for name in type(self)._REQUIRED:
                if getattr(spec, name, None) is None:
                    raise QueryError(f"a {self.op!r} query needs {name!r}")
        coord = getattr(spec, "coord", None)
        if coord is not None:
            resolved = _resolve_coord(coord, schema)
            schema.validate_coord(resolved)
            if resolved != coord:
                spec = spec._with(coord=resolved)
        dim = getattr(spec, "dim", None)
        if dim is not None:
            schema.dim_index(dim)
        fixed = getattr(spec, "fixed", None)
        if fixed:
            for name, _ in fixed:
                schema.dim_index(name)
        values = getattr(spec, "values", None)
        if values is not None and getattr(spec, "coord", None) is not None:
            schema.validate_values(values, spec.coord)  # type: ignore[arg-type]
        return spec

    # ------------------------------------------------------------------
    # Identity and codecs
    # ------------------------------------------------------------------
    def cache_key(self) -> tuple:
        """A canonical hashable identity: equal plans produce equal keys."""
        return self._key

    @cached_property
    def _key(self) -> tuple:
        return (self.op,) + tuple(
            (f.name, getattr(self, f.name)) for f in fields(self)
        )

    @cached_property
    def key_digest(self) -> str:
        """A 64-bit hex digest of :meth:`cache_key`: an ``ETag``'s spec half."""
        key = repr(self.cache_key()).encode("utf-8")
        return hashlib.blake2b(key, digest_size=8).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready wire form (inverse of :func:`spec_from_dict`)."""
        out: dict[str, Any] = {"op": self.op}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name in ("coord", "values"):
                value = list(value)
            elif f.name == "fixed":
                value = {name: v for name, v in value}
            out[_WIRE_KEYS.get(f.name, f.name)] = value
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QuerySpec":
        """Decode one spec of this class from its wire form."""
        wire_to_field = {
            _WIRE_KEYS.get(f.name, f.name): f.name for f in fields(cls)
        }
        kwargs: dict[str, Any] = {}
        for key, value in payload.items():
            if key == "op" or value is None:
                continue
            field_name = wire_to_field.get(key)
            if field_name is None:
                raise QueryError(
                    f"a {cls.op!r} query does not accept {key!r}; "
                    f"allowed fields: {sorted(wire_to_field)}"
                )
            kwargs[field_name] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class CellSpec(QuerySpec):
    """Point query: one cell's regression."""

    op: ClassVar[str] = "cell"
    _REQUIRED: ClassVar[tuple[str, ...]] = ("coord", "values")

    coord: Coord | None = None
    values: Values | None = None


@dataclass(frozen=True)
class SliceSpec(QuerySpec):
    """Cells of one cuboid matching fixed dimension values."""

    op: ClassVar[str] = "slice"
    _REQUIRED: ClassVar[tuple[str, ...]] = ("coord",)

    coord: Coord | None = None
    fixed: tuple[tuple[str, Hashable], ...] | None = None


@dataclass(frozen=True)
class RollUpSpec(QuerySpec):
    """One roll-up step of a cell along a named dimension."""

    op: ClassVar[str] = "roll_up"
    _REQUIRED: ClassVar[tuple[str, ...]] = ("coord", "values", "dim")

    coord: Coord | None = None
    values: Values | None = None
    dim: str | None = None


@dataclass(frozen=True)
class DrillDownSpec(QuerySpec):
    """One drill-down step: the children of a cell along a dimension."""

    op: ClassVar[str] = "drill_down"
    _REQUIRED: ClassVar[tuple[str, ...]] = ("coord", "values", "dim")

    coord: Coord | None = None
    values: Values | None = None
    dim: str | None = None


@dataclass(frozen=True)
class SiblingsSpec(QuerySpec):
    """The cell's siblings along a dimension (same parent, Section 2.1)."""

    op: ClassVar[str] = "siblings"
    _REQUIRED: ClassVar[tuple[str, ...]] = ("coord", "values", "dim")

    coord: Coord | None = None
    values: Values | None = None
    dim: str | None = None


@dataclass(frozen=True)
class SiblingDeviationSpec(QuerySpec):
    """``slope(cell) - mean(slope(siblings))`` along a dimension."""

    op: ClassVar[str] = "sibling_deviation"
    _REQUIRED: ClassVar[tuple[str, ...]] = ("coord", "values", "dim")

    coord: Coord | None = None
    values: Values | None = None
    dim: str | None = None


@dataclass(frozen=True)
class TopSlopesSpec(QuerySpec):
    """The ``k`` steepest cells (by ``|slope|``) of a cuboid."""

    op: ClassVar[str] = "top_slopes"
    _REQUIRED: ClassVar[tuple[str, ...]] = ("coord", "k")

    coord: Coord | None = None
    k: int | None = 5


@dataclass(frozen=True)
class ObservationDeckSpec(QuerySpec):
    """All o-layer cells (what the analyst watches)."""

    op: ClassVar[str] = "observation_deck"


@dataclass(frozen=True)
class WatchListSpec(QuerySpec):
    """The o-layer cells currently flagged exceptional."""

    op: ClassVar[str] = "watch_list"


@dataclass(frozen=True)
class ExceptionsSpec(QuerySpec):
    """The retained exception cells of every cuboid, o-layer included."""

    op: ClassVar[str] = "exceptions"


@dataclass(frozen=True)
class ChangeExceptionsSpec(QuerySpec):
    """Cells whose current-vs-previous window regression is exceptional.

    Compares the last ``quarters_apart`` sealed quarters with the
    ``quarters_apart`` before them, at the m- or the o-layer.  The pair of
    windows is fixed by ``quarters_apart`` alone; the analysis window the
    other ops read plays no part.
    """

    op: ClassVar[str] = "change_exceptions"
    _REQUIRED: ClassVar[tuple[str, ...]] = ("quarters_apart",)

    quarters_apart: int | None = 1
    layer: str = "m"


def spec_from_dict(
    payload: Mapping[str, Any], window: int | None = None
) -> QuerySpec:
    """Decode any spec from its wire form, dispatching on ``op``; a payload
    without a ``window`` takes ``window`` (the reader's default) when one is
    given, so no default has to be filled in later by a copy."""
    if not isinstance(payload, Mapping):
        raise QueryError(f"a query must be a JSON object, got {type(payload).__name__}")
    op = payload.get("op")
    cls = _REGISTRY.get(op)
    if cls is None:
        raise QueryError(
            f"unknown query op {op!r}; known ops: {sorted(_REGISTRY)}"
        )
    if window is not None and payload.get("window") is None:
        payload = {**payload, "window": window}
    return cls.from_dict(payload)


# ----------------------------------------------------------------------
# Batches
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchQuery:
    """An ordered bundle of specs executed against one merged view refresh."""

    specs: tuple[QuerySpec, ...] = ()

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        for spec in specs:
            if not isinstance(spec, QuerySpec):
                raise QueryError(
                    f"a batch holds QuerySpec objects, got {type(spec).__name__}"
                )
        object.__setattr__(self, "specs", specs)

    def add(self, *specs: QuerySpec) -> "BatchQuery":
        return BatchQuery(self.specs + tuple(specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[QuerySpec]:
        return iter(self.specs)

    def cache_key(self) -> tuple:
        return ("batch",) + tuple(spec.cache_key() for spec in self.specs)

    def to_dict(self) -> dict[str, Any]:
        return {"queries": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatchQuery":
        entries = payload.get("queries")
        if not isinstance(entries, list):
            raise QueryError("a batch payload needs a 'queries' list")
        return cls(tuple(spec_from_dict(entry) for entry in entries))


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------
class QueryBuilder:
    """Entry points for every operation; ``Q`` is the unbound instance.

    An unbound builder produces raw specs (validated only structurally).
    ``Q.bind(schema)`` returns a builder whose specs are resolved against the
    schema at construction: level names become coordinates and bad
    dimensions, coordinates, or values fail immediately.
    """

    def __init__(self, schema: CubeSchema | None = None) -> None:
        self.schema = schema

    def bind(self, schema: CubeSchema) -> "QueryBuilder":
        """A builder that eagerly validates/resolves against ``schema``."""
        return QueryBuilder(schema)

    def _out(self, spec: QuerySpec) -> QuerySpec:
        if self.schema is not None:
            return spec.resolve(self.schema, require=False)
        return spec

    def cell(self, coord: Any = None, values: Any = None, window: int | None = None) -> CellSpec:
        return self._out(CellSpec(coord=coord, values=values, window_quarters=window))  # type: ignore[return-value]

    def slice(
        self,
        coord: Any = None,
        fixed: Mapping[str, Hashable] | None = None,
        window: int | None = None,
    ) -> SliceSpec:
        return self._out(SliceSpec(coord=coord, fixed=fixed, window_quarters=window))  # type: ignore[return-value]

    def roll_up(
        self, coord: Any = None, values: Any = None, dim: str | None = None,
        window: int | None = None,
    ) -> RollUpSpec:
        return self._out(  # type: ignore[return-value]
            RollUpSpec(coord=coord, values=values, dim=dim, window_quarters=window)
        )

    def drill_down(
        self, coord: Any = None, values: Any = None, dim: str | None = None,
        window: int | None = None,
    ) -> DrillDownSpec:
        return self._out(  # type: ignore[return-value]
            DrillDownSpec(coord=coord, values=values, dim=dim, window_quarters=window)
        )

    def siblings(
        self, coord: Any = None, values: Any = None, dim: str | None = None,
        window: int | None = None,
    ) -> SiblingsSpec:
        return self._out(  # type: ignore[return-value]
            SiblingsSpec(coord=coord, values=values, dim=dim, window_quarters=window)
        )

    def sibling_deviation(
        self, coord: Any = None, values: Any = None, dim: str | None = None,
        window: int | None = None,
    ) -> SiblingDeviationSpec:
        return self._out(  # type: ignore[return-value]
            SiblingDeviationSpec(
                coord=coord, values=values, dim=dim, window_quarters=window
            )
        )

    def top_slopes(
        self, coord: Any = None, k: int = 5, window: int | None = None
    ) -> TopSlopesSpec:
        return self._out(TopSlopesSpec(coord=coord, k=k, window_quarters=window))  # type: ignore[return-value]

    def observation_deck(self, window: int | None = None) -> ObservationDeckSpec:
        return self._out(ObservationDeckSpec(window_quarters=window))  # type: ignore[return-value]

    def watch_list(self, window: int | None = None) -> WatchListSpec:
        return self._out(WatchListSpec(window_quarters=window))  # type: ignore[return-value]

    def exceptions(self, window: int | None = None) -> ExceptionsSpec:
        return self._out(ExceptionsSpec(window_quarters=window))  # type: ignore[return-value]

    def change_exceptions(
        self, quarters_apart: int = 1, layer: str = "m"
    ) -> ChangeExceptionsSpec:
        return self._out(  # type: ignore[return-value]
            ChangeExceptionsSpec(quarters_apart=quarters_apart, layer=layer)
        )

    def batch(self, *specs: QuerySpec) -> BatchQuery:
        return BatchQuery(tuple(specs))


#: The unbound builder — ``Q.cell(...).at(coord).window(8)``.
Q = QueryBuilder()
