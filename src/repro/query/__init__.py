"""Query layer: declarative specs, one execution engine, drilling.

``repro.query.spec`` defines the frozen :class:`QuerySpec` plan objects and
the fluent :data:`Q` builder; ``repro.query.exec`` is the single engine that
turns a spec into a :class:`QueryResult` against a
:class:`RegressionCubeView`; ``repro.query.drill`` holds the
exception-guided drilling workflow.
"""

from repro.query.drill import DrillNode, ExceptionDriller
from repro.query.exec import (
    BatchItem,
    QueryResult,
    RegressionCubeView,
    execute,
    execute_batch,
)
from repro.query.spec import (
    BatchQuery,
    CellSpec,
    ChangeExceptionsSpec,
    DrillDownSpec,
    ExceptionsSpec,
    ObservationDeckSpec,
    Q,
    QueryBuilder,
    QuerySpec,
    RollUpSpec,
    SiblingDeviationSpec,
    SiblingsSpec,
    SliceSpec,
    TopSlopesSpec,
    WatchListSpec,
    spec_from_dict,
)

__all__ = [
    "RegressionCubeView",
    "DrillNode",
    "ExceptionDriller",
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
    "QueryResult",
    "BatchItem",
    "execute",
    "execute_batch",
]
