"""Hyperdimensional-computing core: the substrate of HD hashing.

Sub-modules
-----------
operations
    bind / bundle / permute / flip primitives on unpacked hypervectors.
similarity
    Hamming and cosine similarity (Eq. 2's delta).
packing
    packed bit-level storage and popcount backends.
basis
    random-, level- and circular-hypervector sets (Algorithm 1, Fig. 2/3).
item_memory
    associative memory realising HDC inference.
periodic
    periodic-data encoding on circular-hypervectors (Section 6).
"""

from .basis import (
    BasisSet,
    circular_basis,
    circular_hypervectors,
    level_basis,
    level_hypervectors,
    random_basis,
    transformation_flip_counts,
)
from .item_memory import ItemMemory
from .operations import (
    bind,
    bundle,
    flip_bits,
    flipped,
    invert,
    permute,
    random_hypervector,
    random_hypervectors,
    validate_hypervector,
)
from .packing import (
    BACKENDS,
    as_words,
    default_backend,
    hamming_packed,
    hamming_packed_matrix,
    hamming_words,
    nearest_rows_words,
    pack_bits,
    popcount_u64,
    row_bytes,
    unpack_bits,
    words_per_row,
)
from .periodic import PeriodicEncoder, circular_distance
from .similarity import (
    cosine_similarity,
    hamming_distance,
    hamming_similarity,
    inverse_hamming,
    similarity_matrix,
)

__all__ = [
    "BACKENDS",
    "BasisSet",
    "ItemMemory",
    "PeriodicEncoder",
    "as_words",
    "bind",
    "bundle",
    "circular_basis",
    "circular_distance",
    "circular_hypervectors",
    "cosine_similarity",
    "default_backend",
    "flip_bits",
    "flipped",
    "hamming_distance",
    "hamming_packed",
    "hamming_packed_matrix",
    "hamming_similarity",
    "hamming_words",
    "invert",
    "inverse_hamming",
    "level_basis",
    "level_hypervectors",
    "nearest_rows_words",
    "pack_bits",
    "permute",
    "popcount_u64",
    "random_basis",
    "random_hypervector",
    "random_hypervectors",
    "row_bytes",
    "similarity_matrix",
    "transformation_flip_counts",
    "unpack_bits",
    "validate_hypervector",
    "words_per_row",
]
