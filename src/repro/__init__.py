"""repro — regression cubes for time-series data streams.

A from-scratch reproduction of Chen, Dong, Han, Wah & Wang,
"Multi-Dimensional Regression Analysis of Time-Series Data Streams"
(VLDB 2002): lossless ISB regression aggregation, tilt time frames,
critical-layer partial materialization, H-tree based m/o-cubing and
popular-path cubing, and an online incremental stream engine.

Quick start::

    from repro import (
        DatasetSpec, generate_dataset, GlobalSlopeThreshold, mo_cubing,
    )

    data = generate_dataset("D3L3C10T10K", seed=1)
    result = mo_cubing(data.layers, data.cells, GlobalSlopeThreshold(0.2))
    print(result.describe())

See DESIGN.md for the module map and EXPERIMENTS.md for the paper-figure
reproductions.
"""

from repro.cube import (
    ALL,
    CellRef,
    ConceptHierarchy,
    CriticalLayers,
    Cuboid,
    CuboidLattice,
    CubeSchema,
    Dimension,
    ExplicitHierarchy,
    FanoutHierarchy,
    PopularPath,
)
from repro.cubing import (
    CubeResult,
    CubingStats,
    ExceptionPolicy,
    GlobalSlopeThreshold,
    PerCuboidSlopeThreshold,
    PerDimensionLevelThreshold,
    buc_cubing,
    calibrate_threshold,
    framework_closure,
    full_materialization,
    intermediate_slopes,
    mo_cubing,
    multiway_cubing,
    popular_path_cubing,
    two_point_isb,
)
from repro.errors import ReproError
from repro.query import (
    BatchQuery,
    DrillNode,
    ExceptionDriller,
    Q,
    QuerySpec,
    RegressionCubeView,
    execute,
    execute_batch,
)
from repro.service import QueryRouter, ShardedStreamCube, StreamCubeService
from repro.regression import (
    ISB,
    Design,
    IntVal,
    LinearFit,
    MultipleFit,
    RunningRegression,
    SufficientStats,
    fit_multiple,
    fit_series,
    isb_of_series,
    linear_design,
    merge_standard,
    merge_time,
    polynomial_design,
    split_time,
    subtract_standard,
)
from repro.stream import (
    DatasetSpec,
    GeneratedDataset,
    PowerGridConfig,
    PowerGridSimulator,
    StreamCubeEngine,
    StreamRecord,
    generate_dataset,
)
from repro.tilt import (
    TiltLevelSpec,
    TiltTimeFrame,
    example3_savings,
    logarithmic_frame,
    natural_frame,
)
from repro.timeseries import TimeSeries, fold_isbs, fold_series

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # regression
    "ISB",
    "IntVal",
    "LinearFit",
    "RunningRegression",
    "fit_series",
    "isb_of_series",
    "merge_standard",
    "merge_time",
    "subtract_standard",
    "split_time",
    "Design",
    "linear_design",
    "polynomial_design",
    "SufficientStats",
    "MultipleFit",
    "fit_multiple",
    # timeseries
    "TimeSeries",
    "fold_series",
    "fold_isbs",
    # cube
    "ALL",
    "ConceptHierarchy",
    "ExplicitHierarchy",
    "FanoutHierarchy",
    "CubeSchema",
    "Dimension",
    "CellRef",
    "Cuboid",
    "CuboidLattice",
    "PopularPath",
    "CriticalLayers",
    # tilt
    "TiltLevelSpec",
    "TiltTimeFrame",
    "natural_frame",
    "logarithmic_frame",
    "example3_savings",
    # cubing
    "ExceptionPolicy",
    "GlobalSlopeThreshold",
    "PerCuboidSlopeThreshold",
    "PerDimensionLevelThreshold",
    "calibrate_threshold",
    "two_point_isb",
    "CubeResult",
    "CubingStats",
    "framework_closure",
    "full_materialization",
    "intermediate_slopes",
    "mo_cubing",
    "popular_path_cubing",
    "buc_cubing",
    "multiway_cubing",
    # stream
    "DatasetSpec",
    "GeneratedDataset",
    "generate_dataset",
    "StreamRecord",
    "PowerGridConfig",
    "PowerGridSimulator",
    "StreamCubeEngine",
    # query
    "RegressionCubeView",
    "ExceptionDriller",
    "DrillNode",
    "QuerySpec",
    "BatchQuery",
    "Q",
    "execute",
    "execute_batch",
    # service
    "ShardedStreamCube",
    "QueryRouter",
    "StreamCubeService",
]
