"""Dynamic hash tables: the paper's comparands and extension baselines.

===================  ==============================================  =======
Algorithm            Lookup                                          Section
===================  ==============================================  =======
modular              O(1) ``h(r) mod k``                             1
consistent           O(log k) ring binary search                     2.1
rendezvous           O(k) highest-random-weight                      2.2
hd                   HDC inference over circular-hypervectors        3
jump                 O(log k) stateless jump hash                    ext.
maglev               O(1) prime lookup table                         ext.
weighted-rendezvous  HRW with capacity weights                       ext.
hierarchical         outer table picks a group, inner a server       ext.
weighted             any table over weighted virtual members         ext.
===================  ==============================================  =======

All implement :class:`repro.hashing.base.DynamicHashTable`.
"""

from .base import DynamicHashTable, STATE_FORMAT_VERSION
from .registry import (
    AlgorithmEntry,
    TableConfig,
    algorithm_entry,
    make_table,
    register_table,
    registered_algorithms,
    table_class,
)
from .consistent import ConsistentConfig, ConsistentHashTable
from .hd import HDConfig, HDHashTable
from .hierarchical import HierarchicalConfig, HierarchicalHashTable
from .jump import JumpHashTable, jump_hash
from .maglev import MaglevConfig, MaglevHashTable
from .modular import ModularHashTable
from .rendezvous import RendezvousHashTable, WeightedRendezvousHashTable
from .weighted import VirtualWeightTable, WeightedTableConfig, weighted_table

__all__ = [
    "STATE_FORMAT_VERSION",
    "AlgorithmEntry",
    "ConsistentConfig",
    "ConsistentHashTable",
    "DynamicHashTable",
    "HDConfig",
    "HDHashTable",
    "HierarchicalConfig",
    "HierarchicalHashTable",
    "JumpHashTable",
    "MaglevConfig",
    "MaglevHashTable",
    "ModularHashTable",
    "RendezvousHashTable",
    "TableConfig",
    "VirtualWeightTable",
    "WeightedRendezvousHashTable",
    "WeightedTableConfig",
    "algorithm_entry",
    "jump_hash",
    "make_table",
    "register_table",
    "registered_algorithms",
    "table_class",
    "weighted_table",
]
