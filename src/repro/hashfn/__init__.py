"""Hash-function substrate for the HD-hashing reproduction.

The paper treats ``h(.)`` as an ideal hash function; this package provides
concrete, deterministic realisations:

* :mod:`repro.hashfn.mixers` -- 64-bit avalanche mixers (SplitMix64,
  MurmurHash3's fmix64 finalizer), scalar and vectorized.
* :mod:`repro.hashfn.xxh` -- pure-Python XXH64 for string and byte keys.
* :mod:`repro.hashfn.keys` -- canonical key -> 64-bit-word conversion.
* :mod:`repro.hashfn.family` -- seeded families with derivation.
"""

from .family import HashFamily
from .keys import Key, key_to_word, keys_to_words
from .mixers import (
    GOLDEN_GAMMA,
    MASK64,
    fmix64,
    fmix64_inplace,
    fmix64_vec,
    mix_pair,
    mix_pair_vec,
    rotl64,
    rotl64_vec,
    splitmix64,
    splitmix64_vec,
)
from .xxh import xxh64

__all__ = [
    "HashFamily",
    "Key",
    "GOLDEN_GAMMA",
    "MASK64",
    "fmix64",
    "fmix64_inplace",
    "fmix64_vec",
    "key_to_word",
    "keys_to_words",
    "mix_pair",
    "mix_pair_vec",
    "rotl64",
    "rotl64_vec",
    "splitmix64",
    "splitmix64_vec",
    "xxh64",
]
