"""Hyperdimensional Hashing -- a robust and efficient dynamic hash table.

Full reproduction of Heddes et al., DAC 2022 (arXiv:2205.07850): the HD
hashing algorithm with its circular-hypervector construction, the
consistent / rendezvous / modular baselines, the emulation framework with
bit-level memory fault injection, and the experiment harness regenerating
every figure of the paper's evaluation.

Quickstart
----------
>>> from repro import HDHashTable
>>> table = HDHashTable(seed=7, dim=4096, codebook_size=512)
>>> for name in ("alpha", "beta", "gamma"):
...     table.join(name)
>>> table.lookup("user-42") in {"alpha", "beta", "gamma"}
True
"""

from .analysis import (
    chi_squared_statistic,
    chi_squared_test,
    remap_fraction,
    summarize_loads,
    uniformity_chi2,
)
from .costmodel import DEFAULT_MACHINES, CostModel, MachineParameters
from .emulator import (
    Emulator,
    HashTableModule,
    RequestGenerator,
    UniformKeys,
    ZipfKeys,
    server_names,
)
from .errors import (
    CapacityError,
    DuplicateServerError,
    EmptyTableError,
    ReproError,
    StateError,
    UnknownAlgorithmError,
    UnknownServerError,
)
from .hashfn import HashFamily
from .hdc import (
    BasisSet,
    ItemMemory,
    PeriodicEncoder,
    circular_basis,
    circular_hypervectors,
    cosine_similarity,
    hamming_distance,
    level_basis,
    random_basis,
    similarity_matrix,
)
from .hashing import (
    ConsistentHashTable,
    DynamicHashTable,
    HDHashTable,
    HierarchicalHashTable,
    JumpHashTable,
    MaglevHashTable,
    ModularHashTable,
    RendezvousHashTable,
    VirtualWeightTable,
    WeightedRendezvousHashTable,
    make_table,
    register_table,
    registered_algorithms,
    table_class,
    weighted_table,
)
from .control import (
    Autoscaler,
    ControlLoop,
    FleetState,
    Health,
    HealthMonitor,
    ServerSpec,
    UtilizationPolicy,
)
from .service import (
    EpochRecord,
    MembershipUpdate,
    Router,
    RouterObserver,
    load_table,
    save_table,
)
from .memory import (
    BitErrorRate,
    BurstError,
    FaultInjector,
    MemoryRegion,
    MismatchCampaign,
    SecdedScrubber,
    SingleBitFlips,
)

__version__ = "1.0.0"

__all__ = [
    "Autoscaler",
    "ControlLoop",
    "FleetState",
    "Health",
    "HealthMonitor",
    "ServerSpec",
    "UtilizationPolicy",
    "VirtualWeightTable",
    "BasisSet",
    "BitErrorRate",
    "BurstError",
    "CapacityError",
    "ConsistentHashTable",
    "CostModel",
    "DEFAULT_MACHINES",
    "DuplicateServerError",
    "DynamicHashTable",
    "Emulator",
    "EmptyTableError",
    "EpochRecord",
    "FaultInjector",
    "HDHashTable",
    "HashFamily",
    "HashTableModule",
    "HierarchicalHashTable",
    "ItemMemory",
    "JumpHashTable",
    "MachineParameters",
    "MaglevHashTable",
    "MembershipUpdate",
    "MemoryRegion",
    "MismatchCampaign",
    "ModularHashTable",
    "PeriodicEncoder",
    "RendezvousHashTable",
    "Router",
    "RouterObserver",
    "SecdedScrubber",
    "ReproError",
    "RequestGenerator",
    "StateError",
    "UniformKeys",
    "UnknownAlgorithmError",
    "UnknownServerError",
    "WeightedRendezvousHashTable",
    "ZipfKeys",
    "chi_squared_statistic",
    "chi_squared_test",
    "circular_basis",
    "circular_hypervectors",
    "cosine_similarity",
    "hamming_distance",
    "level_basis",
    "load_table",
    "make_table",
    "random_basis",
    "register_table",
    "registered_algorithms",
    "remap_fraction",
    "save_table",
    "server_names",
    "similarity_matrix",
    "summarize_loads",
    "table_class",
    "uniformity_chi2",
    "weighted_table",
    "__version__",
]
