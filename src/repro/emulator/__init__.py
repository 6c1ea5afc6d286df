"""Emulation framework (Section 5.1 of the paper).

generator -> buffer -> hash-table module, with statistics collection.
Noise injection lives in :mod:`repro.memory` and plugs in between
workload phases via each table's ``memory_regions()``.
"""

from .buffer import DispatchUnit, RequestBuffer
from .distributions import (
    HotspotKeys,
    KeyDistribution,
    SequentialKeys,
    UniformKeys,
    ZipfKeys,
)
from .emulator import Emulator
from .generator import RequestGenerator, server_names
from .module import EmulationReport, HashTableModule
from .requests import (
    JoinRequest,
    LeaveRequest,
    LookupBurst,
    LookupRequest,
    Request,
)
from .scenario import (
    ServingChurnRecord,
    ServingScenarioConfig,
    ServingScenarioResult,
    run_serving_scenario,
)
from .stats import LoadStats, MembershipStats, TimingStats
from .trace import load_trace, parse_trace_lines, save_trace, trace_lines

__all__ = [
    "DispatchUnit",
    "EmulationReport",
    "Emulator",
    "ServingChurnRecord",
    "ServingScenarioConfig",
    "ServingScenarioResult",
    "run_serving_scenario",
    "HashTableModule",
    "HotspotKeys",
    "JoinRequest",
    "KeyDistribution",
    "LeaveRequest",
    "LoadStats",
    "LookupBurst",
    "MembershipStats",
    "LookupRequest",
    "Request",
    "RequestBuffer",
    "RequestGenerator",
    "SequentialKeys",
    "TimingStats",
    "UniformKeys",
    "ZipfKeys",
    "load_trace",
    "parse_trace_lines",
    "save_trace",
    "server_names",
    "trace_lines",
]
