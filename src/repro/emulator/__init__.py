"""Emulation framework (Section 5.1 of the paper).

generator -> buffer -> hash-table module, with statistics collection.
Noise injection lives in :mod:`repro.memory` and plugs in between
workload phases via each table's ``memory_regions()``.
"""

from .buffer import DispatchUnit, RequestBuffer
from .distributions import KeyDistribution, UniformKeys, ZipfKeys
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
from .stats import LoadStats, TimingStats

__all__ = [
    "DispatchUnit",
    "EmulationReport",
    "Emulator",
    "ServingChurnRecord",
    "ServingScenarioConfig",
    "ServingScenarioResult",
    "run_serving_scenario",
    "HashTableModule",
    "JoinRequest",
    "KeyDistribution",
    "LeaveRequest",
    "LoadStats",
    "LookupBurst",
    "LookupRequest",
    "Request",
    "RequestBuffer",
    "RequestGenerator",
    "TimingStats",
    "UniformKeys",
    "ZipfKeys",
    "server_names",
]
