"""Rendezvous / highest-random-weight hashing (Section 2.2 of the paper).

Each request ``r`` is served by ``argmax_s h(s, r)``: every server's
pairwise hash with the request is computed and the highest weight wins.
Assignment is O(k) per request -- the linear curve of Figure 4 -- but the
placement is perfectly (pseudo-)uniform and resizing is minimally
disruptive: removing a server only remaps the keys it was winning, and a
joining server only steals the keys it now wins.

Memory model: the routing state is the array of stored server words (the
identifiers that are fed into ``h(s, r)``).  A corrupted word perturbs
that server's weight for *every* request, so the server both loses its
own ~1/k share and wins a fresh ~1/k elsewhere -- ~2/k mismatch per
corrupted word, the paper's ~4 % at k=512 with 10 flips.

:class:`WeightedRendezvousHashTable` extends HRW with per-server
capacity weights via the logarithm method (score = -w / ln U), preserving
minimal disruption while skewing load toward heavier servers.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..hashfn import HashFamily, Key, fmix64_inplace
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import TableConfig, register_table

__all__ = ["RendezvousHashTable", "WeightedRendezvousHashTable"]

_CHUNK_WORDS = 1 << 20  # bound the (k x chunk) weight matrix to ~8 MB rows

#: Chunk budget of the fused HRW kernel: the (k x chunk) uint64 weight
#: block is sized to stay L2-resident, so the XOR + in-place fmix64 +
#: argmax passes all hit cache instead of streaming DRAM.
_FUSED_CHUNK_BYTES = 1 << 19


def _top_k_slots(keys: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` slots per column of an ``(m, c)`` ranking-key matrix.

    ``keys`` is ascending-is-better (pass ``~weights`` for HRW, negated
    scores for the weighted variant).  A vectorized ``argpartition``
    narrows each column to ``k`` candidates, which are then ordered by
    (key, slot): candidates are pre-sorted by slot index so the stable
    key sort breaks ties toward the lowest slot -- exactly the running
    first-maximum rule of the scalar loop.  Returns a ``(k, c)``
    ``int64`` matrix, best first.
    """
    m = keys.shape[0]
    if k < m:
        candidates = np.argpartition(keys, k - 1, axis=0)[:k]
    else:
        candidates = np.broadcast_to(
            np.arange(m, dtype=np.int64)[:, None], keys.shape
        )
    candidates = np.sort(candidates, axis=0)
    candidate_keys = np.take_along_axis(keys, candidates, axis=0)
    order = np.argsort(candidate_keys, axis=0, kind="stable")
    return np.take_along_axis(candidates, order, axis=0)


@register_table(
    "rendezvous",
    config=TableConfig,
    description="O(k) highest-random-weight hashing",
    paper=True,
)
class RendezvousHashTable(DynamicHashTable):
    """Highest-random-weight (HRW) hashing."""

    name = "rendezvous"

    def __init__(self, family: HashFamily = None, seed: int = 0):
        super().__init__(family=family, seed=seed)
        self._pair_family = self.family.derive("hrw")
        self._server_words = np.empty(0, dtype=np.uint64)

    def _join_many(
        self, server_ids: List[Key], server_words: List[int]
    ) -> None:
        words = np.asarray(server_words, dtype=np.uint64)
        self._server_words = np.concatenate([self._server_words, words])
        self._server_ids.extend(server_ids)

    def _leave_many(
        self, server_ids: List[Key], server_slots: List[int]
    ) -> None:
        removed = sorted(server_slots)
        start, stop = removed[0], removed[-1] + 1
        if stop - start == len(removed):
            # Contiguous block (every single-server leave through the
            # weighted wrapper): two slice views and one concatenate.
            self._server_words = np.concatenate(
                [self._server_words[:start], self._server_words[stop:]]
            )
            del self._server_ids[start:stop]
            return
        # Direct keep-mask indexing; np.delete pays generic-path
        # overhead that dominates at membership-event sizes.
        keep = np.ones(self._server_words.size, dtype=bool)
        keep[removed] = False
        self._server_words = self._server_words[keep]
        for slot in reversed(removed):
            del self._server_ids[slot]

    def route_word(self, word: int) -> int:
        """Scalar deployment path: an explicit O(k) loop over the pool.

        This is intentionally the naive per-request computation (one
        pairwise hash per server, running maximum) so the efficiency
        experiment observes rendezvous hashing's true linear cost.
        """
        self._require_servers()
        pair = self._pair_family.pair
        best_slot = 0
        best_weight = -1
        for slot in range(self.server_count):
            weight = pair(int(self._server_words[slot]), word)
            if weight > best_weight:
                best_weight = weight
                best_slot = slot
        return best_slot

    def _weight_chunks(self, words: np.ndarray):
        """Yield ``(start, stop, block)`` fused pairwise-weight chunks.

        The pairwise hash splits into one-sided mixes (see
        :meth:`~repro.hashfn.HashFamily.pair_terms`): each server word
        and each request word is mixed exactly once per call, and the
        O(servers x requests) cross product is a single XOR plus an
        in-place fmix64 over one preallocated, cache-sized buffer --
        bit-identical weights to ``pair_vec`` broadcasting, at a
        fraction of the temporaries.  Server words are re-mixed on
        every call on purpose: the fault-injection campaigns corrupt
        ``self._server_words`` in place and must see the corruption
        reflected in routing.  ``block`` is reused between iterations;
        consumers must not hold a reference across steps.
        """
        lhs, rhs = self._pair_family.pair_terms(self._server_words, words)
        lhs = lhs[:, None]
        rows = max(1, self.server_count)
        chunk = max(1, _FUSED_CHUNK_BYTES // (8 * rows))
        buf = np.empty(
            (self.server_count, min(chunk, max(1, words.size))),
            dtype=np.uint64,
        )
        for start in range(0, words.size, chunk):
            stop = min(start + chunk, words.size)
            block = buf[:, : stop - start]
            np.bitwise_xor(lhs, rhs[None, start:stop], out=block)
            fmix64_inplace(block)
            yield start, stop, block

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        if words.size == 1:
            # One-word probes (the churn reconciliation pattern) skip
            # the chunk generator and its buffer: same one-sided mixes,
            # same fmix, same first-maximum argmax -- bit-identical.
            lhs, rhs = self._pair_family.pair_terms(
                self._server_words, words
            )
            weights = fmix64_inplace(lhs ^ rhs[0])
            return np.asarray([weights.argmax()], dtype=np.int64)
        out = np.empty(words.size, dtype=np.int64)
        for start, stop, block in self._weight_chunks(words):
            out[start:stop] = block.argmax(axis=0)
        return out

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        """Native replica path: top-``k`` of the pairwise weight matrix.

        HRW's replica set is free -- the weights against every server
        are computed for the argmax anyway -- so this swaps the argmax
        for a vectorized ``argpartition`` top-k over the same fused
        chunked weight matrix (``~weight`` turns highest-weight-wins
        into an ascending sort key; inverted in place, the block is
        scratch anyway).
        """
        out = np.empty((words.size, k), dtype=np.int64)
        for start, stop, block in self._weight_chunks(words):
            np.invert(block, out=block)
            out[start:stop] = _top_k_slots(block, k).T
        return out

    # -- delta-scoped epoch accounting -------------------------------------

    # HRW is the textbook minimal-disruption placement: the winning
    # pairwise weight is untouched by other servers' departures, and a
    # joiner steals exactly the words its own weight column strictly
    # exceeds the cached winner on (argmax keeps the first maximum, so
    # the incumbent's lower slot wins ties).

    def _delta_scores(self, words: np.ndarray):
        if not self._server_ids:
            return None
        out = np.empty(words.size, dtype=np.uint64)
        for start, stop, block in self._weight_chunks(words):
            out[start:stop] = block.max(axis=0)
        return out

    def _delta_challenge(self, server_id: Key, words: np.ndarray):
        # The 1-wide slice (not a scalar) keeps the mix on the array
        # ufunc path, where uint64 wraparound is silent by contract.
        slot = self._slot_of(server_id)
        word = self._server_words[slot : slot + 1]
        return self._pair_family.pair_vec(word, words)

    def _state_payload(self) -> Dict[str, Any]:
        return {"server_words": self._server_words.copy()}

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        self._server_words = np.asarray(
            payload["server_words"], dtype=np.uint64
        ).copy()

    def memory_regions(self) -> List[MemoryRegion]:
        return [MemoryRegion("server_words", self._server_words)]


@register_table(
    "weighted-rendezvous",
    config=TableConfig,
    description="HRW with per-server capacity weights (logarithm method)",
)
class WeightedRendezvousHashTable(RendezvousHashTable):
    """HRW with per-server capacity weights (logarithm method)."""

    name = "weighted-rendezvous"
    supports_weights = True

    def __init__(self, family: HashFamily = None, seed: int = 0):
        super().__init__(family=family, seed=seed)
        self._weights: Dict[Key, float] = {}
        self._weight_array = np.empty(0, dtype=np.float64)

    def join(self, server_id: Key, weight: float = 1.0) -> None:
        """Add a server with a relative capacity ``weight`` (> 0)."""
        if weight <= 0:
            raise ValueError("server weight must be positive")
        had_weight = server_id in self._weights
        previous = self._weights.get(server_id)
        self._weights[server_id] = float(weight)
        try:
            super().join(server_id)
        except Exception:
            if had_weight:
                self._weights[server_id] = previous
            else:
                self._weights.pop(server_id, None)
            raise

    def _join_many(
        self, server_ids: List[Key], server_words: List[int]
    ) -> None:
        # Bulk joins carry the table default weight, matching scalar
        # ``join``'s default; weighted joins go through ``join``.
        for server_id in server_ids:
            self._weights.setdefault(server_id, 1.0)
        super()._join_many(server_ids, server_words)
        self._weight_array = np.concatenate(
            [
                self._weight_array,
                np.asarray(
                    [self._weights[server_id] for server_id in server_ids],
                    dtype=np.float64,
                ),
            ]
        )

    def _leave_many(
        self, server_ids: List[Key], server_slots: List[int]
    ) -> None:
        self._weight_array = np.delete(
            self._weight_array, sorted(server_slots)
        )
        super()._leave_many(server_ids, server_slots)
        for server_id in server_ids:
            self._weights.pop(server_id, None)

    def _scores(self, words: np.ndarray) -> np.ndarray:
        # Map pairwise hashes to uniform (0, 1), then score = -w / ln U.
        hashes = self._pair_family.pair_vec(
            self._server_words[:, None], np.asarray(words, np.uint64)[None, :]
        )
        uniforms = (hashes.astype(np.float64) + 0.5) / 2.0 ** 64
        with np.errstate(divide="ignore"):
            return -self._weight_array[:, None] / np.log(uniforms)

    def route_word(self, word: int) -> int:
        self._require_servers()
        return int(self._scores(np.asarray([word], np.uint64)).argmax(axis=0)[0])

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        out = np.empty(words.size, dtype=np.int64)
        chunk = max(1, _CHUNK_WORDS // max(1, self.server_count))
        for start in range(0, words.size, chunk):
            stop = min(start + chunk, words.size)
            out[start:stop] = self._scores(words[start:stop]).argmax(axis=0)
        return out

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        # Same top-k machinery as plain HRW, over the weighted scores
        # (negated: higher score is better).
        out = np.empty((words.size, k), dtype=np.int64)
        chunk = max(1, _CHUNK_WORDS // max(1, self.server_count))
        for start in range(0, words.size, chunk):
            stop = min(start + chunk, words.size)
            out[start:stop] = _top_k_slots(-self._scores(words[start:stop]), k).T
        return out

    # The logarithm method preserves minimal disruption, so the same
    # cached-winner trick applies over the weighted scores (float64;
    # argmax keeps the first maximum, so strict comparison again breaks
    # ties toward the incumbent's lower slot).

    def _delta_scores(self, words: np.ndarray):
        if not self._server_ids:
            return None
        out = np.empty(words.size, dtype=np.float64)
        chunk = max(1, _CHUNK_WORDS // max(1, self.server_count))
        for start in range(0, words.size, chunk):
            stop = min(start + chunk, words.size)
            out[start:stop] = self._scores(words[start:stop]).max(axis=0)
        return out

    def _delta_challenge(self, server_id: Key, words: np.ndarray):
        slot = self._slot_of(server_id)
        hashes = self._pair_family.pair_vec(
            self._server_words[slot : slot + 1],
            np.asarray(words, dtype=np.uint64),
        )
        uniforms = (hashes.astype(np.float64) + 0.5) / 2.0 ** 64
        with np.errstate(divide="ignore"):
            return -self._weight_array[slot] / np.log(uniforms)

    def _state_payload(self) -> Dict[str, Any]:
        payload = super()._state_payload()
        payload["weights"] = [
            (server_id, float(self._weights[server_id]))
            for server_id in self._server_ids
        ]
        return payload

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        super()._load_payload(payload, server_ids)
        self._weights = {
            server_id: float(weight) for server_id, weight in payload["weights"]
        }
        self._weight_array = np.asarray(
            [self._weights[server_id] for server_id in server_ids],
            dtype=np.float64,
        )
