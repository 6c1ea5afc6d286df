"""Jump consistent hash (Lamping & Veach, 2014) -- extension baseline.

Jump hash maps a 64-bit key to one of ``k`` buckets with no stored ring
at all: a tiny multiplicative PRNG walk decides the final bucket in
O(log k) expected iterations.  It is minimally disruptive for bucket
*growth* (only ~1/k of keys move when a bucket is added at the end) but
does not natively support removing an arbitrary bucket; like production
deployments, we keep a bucket->server indirection and swap-remove, which
remaps the keys of the removed and the last bucket.

Included as an extension comparand: it shows that tiny-state algorithms
buy their efficiency with rigidity (arbitrary leaves are disruptive),
whereas HD hashing keeps both properties at the cost of hypervector
memory.

Memory model: the bucket indirection array (re-interpreted modulo the
pool size when corrupted, like :class:`~repro.hashing.modular.ModularHashTable`).

Replica routing: jump hash has no stored ranking to take a top-k from
(the PRNG walk yields exactly one bucket), so replica sets use the base
class's generic exclusion-rerank fallback -- salted rehashes of the key
word re-jumped until ``k`` distinct buckets' servers are collected.
``replicas[0]`` is always the plain jump winner.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..hashfn import HashFamily, Key
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import TableConfig, register_table

__all__ = ["JumpHashTable", "jump_hash", "jump_hash_batch"]

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_JUMP_MUL = 2_862_933_555_777_941_757


def jump_hash(word: int, buckets: int) -> int:
    """The jump consistent hash of a 64-bit ``word`` into ``buckets``."""
    if buckets <= 0:
        raise ValueError("bucket count must be positive")
    key = word & _MASK64
    bucket = -1
    next_bucket = 0
    while next_bucket < buckets:
        bucket = next_bucket
        key = (key * _JUMP_MUL + 1) & _MASK64
        next_bucket = int((bucket + 1) * (1 << 31) / ((key >> 33) + 1))
    return bucket


def jump_hash_batch(words: np.ndarray, buckets: int) -> np.ndarray:
    """Vectorized :func:`jump_hash` over a batch of 64-bit words.

    Runs the PRNG walk on the whole batch at once, masking out words
    whose walk has converged; the iteration count is the longest walk in
    the batch (~``ln buckets`` expected), not the batch size.  Exact bit
    match with the scalar walk: both sides compute the candidate bucket
    in float64 from operands small enough (< 2**53) to convert exactly.
    """
    if buckets <= 0:
        raise ValueError("bucket count must be positive")
    words = np.asarray(words, dtype=np.uint64)
    key = words.copy()
    bucket = np.full(words.shape, -1, dtype=np.int64)
    candidate = np.zeros(words.shape, dtype=np.int64)
    active = np.ones(words.shape, dtype=bool)
    mul = np.uint64(_JUMP_MUL)
    one = np.uint64(1)
    shift = np.uint64(33)
    while True:
        bucket[active] = candidate[active]
        key[active] = key[active] * mul + one
        candidate[active] = (
            (bucket[active] + 1).astype(np.float64)
            * float(1 << 31)
            / ((key[active] >> shift).astype(np.float64) + 1.0)
        ).astype(np.int64)
        active = candidate < buckets
        if not active.any():
            return bucket


@register_table(
    "jump",
    config=TableConfig,
    description="stateless O(log k) jump hash with bucket indirection",
)
class JumpHashTable(DynamicHashTable):
    """Jump consistent hashing with a swap-remove bucket indirection."""

    name = "jump"

    def __init__(self, family: HashFamily = None, seed: int = 0):
        super().__init__(family=family, seed=seed)
        self._bucket_refs = np.empty(0, dtype=np.int64)

    def _join(self, server_id: Key, server_word: int) -> None:
        self._bucket_refs = np.append(
            self._bucket_refs, np.int64(self.server_count)
        )

    def _leave(self, server_id: Key, slot: int) -> None:
        refs = self._bucket_refs
        # Swap-remove: the last bucket's server takes over the hole.
        bucket_of_slot = int(np.nonzero(refs == slot)[0][0])
        last = refs.size - 1
        refs[bucket_of_slot] = refs[last]
        self._bucket_refs = refs[:last].copy()
        # Registry compaction shifts slots above the removed one down.
        self._bucket_refs[self._bucket_refs > slot] -= 1

    def route_word(self, word: int) -> int:
        self._require_servers()
        count = self.server_count
        bucket = jump_hash(word, count)
        return int(self._bucket_refs[bucket]) % count

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        count = self.server_count
        buckets = jump_hash_batch(words, count)
        return self._bucket_refs[buckets] % np.int64(count)

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        # Jump hash ranks no pool, so replicas are salted rehashes:
        # every rehash round is one masked jump_hash_batch sweep.
        return self._rehash_replicas_batch(words, k)

    def _state_payload(self) -> Dict[str, Any]:
        return {"bucket_refs": self._bucket_refs.copy()}

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        self._bucket_refs = np.asarray(
            payload["bucket_refs"], dtype=np.int64
        ).copy()

    def memory_regions(self) -> List[MemoryRegion]:
        return [MemoryRegion("bucket_table", self._bucket_refs)]
