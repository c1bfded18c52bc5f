"""Stream substrate: generators, records, simulators, the online engine."""

from repro.stream.engine import StreamCubeEngine, engine_frame_levels
from repro.stream.generator import DatasetSpec, GeneratedDataset, generate_dataset
from repro.stream.power_grid import PowerGridConfig, PowerGridSimulator, USER_GROUPS
from repro.stream.records import (
    RecordColumns,
    StreamRecord,
    sort_records,
    validate_monotonic,
)
from repro.stream.sliding import SlidingWindowRegression
from repro.stream.state import CellSnapshot, EngineState
from repro.stream.wal import QuarterWAL, WalEntry

__all__ = [
    "CellSnapshot",
    "EngineState",
    "QuarterWAL",
    "WalEntry",
    "DatasetSpec",
    "GeneratedDataset",
    "generate_dataset",
    "RecordColumns",
    "StreamRecord",
    "sort_records",
    "validate_monotonic",
    "PowerGridConfig",
    "PowerGridSimulator",
    "USER_GROUPS",
    "StreamCubeEngine",
    "engine_frame_levels",
    "SlidingWindowRegression",
]
