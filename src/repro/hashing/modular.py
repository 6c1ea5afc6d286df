"""Modular hashing: the O(1) baseline that motivates the whole problem.

A request ``r`` goes to slot ``h(r) mod k``.  Lookup is constant time,
but any change of the pool size ``k`` changes the modulus and remaps
virtually every key (Section 1 of the paper) -- quantified here by
experiment E7 (remap-on-resize).

Memory model: the table's routing state is the slot-indirection array
(each entry is the "pointer" from a hash bucket to a server).  A corrupted
entry silently redirects that bucket; the pointer is re-interpreted modulo
the pool size, as a real deployment reading a corrupted index register
would land *somewhere*.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..hashfn import HashFamily, Key
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import TableConfig, register_table

__all__ = ["ModularHashTable"]


@register_table(
    "modular",
    config=TableConfig,
    description="O(1) `h(r) mod k` baseline; remaps ~everything on resize",
    paper=True,
)
class ModularHashTable(DynamicHashTable):
    """The classic ``h(r) mod k`` hash table."""

    name = "modular"

    def __init__(self, family: HashFamily = None, seed: int = 0):
        super().__init__(family=family, seed=seed)
        self._slot_refs = np.empty(0, dtype=np.int64)

    def _rebuild(self, count: int) -> None:
        # Resizing rehashes everything: the indirection becomes identity
        # again, mirroring a freshly allocated table.
        self._slot_refs = np.arange(count, dtype=np.int64)

    def _join(self, server_id: Key, server_word: int) -> None:
        self._rebuild(self.server_count + 1)

    def _leave(self, server_id: Key, slot: int) -> None:
        self._rebuild(self.server_count - 1)

    def _join_many(
        self, server_ids: List[Key], server_words: List[int]
    ) -> None:
        # The modulus only depends on the final count: one rebuild per
        # event batch instead of one per member.
        self._server_ids.extend(server_ids)
        self._rebuild(self.server_count)

    def _leave_many(
        self, server_ids: List[Key], server_slots: List[int]
    ) -> None:
        for slot in sorted(server_slots, reverse=True):
            del self._server_ids[slot]
        self._rebuild(self.server_count)

    def route_word(self, word: int) -> int:
        self._require_servers()
        count = self.server_count
        return int(self._slot_refs[word % count]) % count

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        count = np.uint64(self.server_count)
        buckets = (words % count).astype(np.int64)
        return self._slot_refs[buckets] % np.int64(self.server_count)

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        """Replicas at successive hash buckets: the open-addressing rule
        (replica ``i`` at bucket ``(h(r) + i) mod k``) walked through
        the same slot indirection (and corruption surface) as lookups."""
        count = self.server_count
        starts = (words % np.uint64(count)).astype(np.int64)
        return self._walk_distinct_batch(
            starts, self._slot_refs % np.int64(count), k
        )

    def _state_payload(self) -> Dict[str, Any]:
        return {"slot_refs": self._slot_refs.copy()}

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        self._slot_refs = np.asarray(payload["slot_refs"], dtype=np.int64).copy()

    def memory_regions(self) -> List[MemoryRegion]:
        return [MemoryRegion("slot_table", self._slot_refs)]
