"""Canonical conversion of application-level keys into 64-bit words.

Every hashing algorithm in :mod:`repro.hashing` operates internally on
64-bit words.  This module defines the single place where application
objects (server identifiers, request keys) are turned into such words, so
all algorithms see exactly the same key material -- a prerequisite for the
mismatch experiments where a corrupted table is compared against a
pristine replica on the *same* request stream.

Supported key types are ``int``, ``str`` and ``bytes``; anything else is
rejected loudly (in the spirit of "explicit is better than implicit") so a
typo cannot silently degrade into ``repr``-based hashing.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .mixers import MASK64, splitmix64, splitmix64_vec
from .xxh import xxh64

__all__ = ["Key", "key_to_word", "keys_to_words"]

#: The union of key types accepted by every table in :mod:`repro.hashing`.
Key = Union[int, str, bytes]


def key_to_word(key: Key, seed: int = 0) -> int:
    """Convert an application key into a uniformly mixed 64-bit word.

    Integers go through SplitMix64 (bijective, collision-free on the
    64-bit domain); strings are UTF-8 encoded and byte strings are hashed
    with XXH64.  The ``seed`` selects a member of the hash family, so two
    tables built with different seeds see independent placements.
    """
    if isinstance(key, bool):
        # bool is an int subclass; reject it to avoid surprising keys.
        raise TypeError("bool is not a supported key type")
    if isinstance(key, int):
        return splitmix64((key ^ splitmix64(seed)) & MASK64)
    if isinstance(key, str):
        return xxh64(key.encode("utf-8"), seed=seed)
    if isinstance(key, bytes):
        return xxh64(key, seed=seed)
    raise TypeError(
        "unsupported key type {!r}; expected int, str or bytes".format(
            type(key).__name__
        )
    )


def keys_to_words(keys, seed: int = 0) -> np.ndarray:
    """Vectorized :func:`key_to_word` for a batch of integer keys.

    Accepts any integer array-like (the emulator's generator produces
    ``uint64`` arrays) and returns a ``uint64`` array of mixed words.
    Non-integer batches must go through :func:`key_to_word` element-wise.
    """
    array = np.asarray(keys)
    if array.dtype.kind not in ("i", "u"):
        raise TypeError(
            "keys_to_words requires an integer array, got dtype {}".format(
                array.dtype
            )
        )
    words = array.astype(np.uint64, copy=False)
    return splitmix64_vec(words ^ np.uint64(splitmix64(seed)))
