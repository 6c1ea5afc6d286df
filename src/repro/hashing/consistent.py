"""Consistent hashing (Karger et al.; Section 2.1 of the paper).

Servers and requests are mapped "uniformly to the unit interval [0, 1],
which is interpreted as a circular interval"; each request is served by
the first server that succeeds it clockwise.  We store the interval in
32-bit fixed point (the compact form a high-throughput emulator keeps
resident), sorted, with one entry per virtual node.

Two lookup backends compute the same successor function on pristine
memory:

* ``route_word`` -- scalar binary search over the sorted ring, the
  O(log k) deployment path of Section 2.1 (used by the efficiency
  experiment);
* ``route_batch`` -- the data-parallel form ``index = count(pos < key)``,
  which is how a vectorized/GPU emulator evaluates successors for a
  whole batch at once (used by the robustness/uniformity campaigns,
  mirroring the paper's emulator).  The counts come from a
  ``searchsorted`` over a sorted copy of the ring, which counts the
  same entries as comparing every key with every position.
  ``search="bisect"`` instead runs ``route_word``'s binary search for
  the whole batch at once, so it equals ``route_word`` on any ring.

Memory model and why consistent hashing is fragile (Figure 5): the
sorted position array is the routing state.  A flipped bit displaces one
position by ``2^(b-32)`` of the circle; every key between the old and the
new value now counts one successor too many or too few, so a single
high-order flip silently misroutes the whole displaced span -- orders of
magnitude more keys than the server's own arc.  The scalar bisection
backend confines the damage to the corrupted entry's search subtree and
is measurably less fragile; the ablation benchmark E10 quantifies the
difference between the two backends.

``replicas`` controls virtual nodes per server.  The paper's description
and its uniformity results (Figure 6) correspond to ``replicas=1``; more
replicas smooth the load and are exercised by ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from ..hashfn import HashFamily, Key
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import register_table

__all__ = ["ConsistentHashTable", "ConsistentConfig"]

#: Keys and positions live on a 2^32-slot fixed-point circle.
_CIRCLE_BITS = 32
_CIRCLE_MASK = 0xFFFF_FFFF

#: Keys the ``count`` backend searches per call, bounding its temporaries.
_COUNT_CHUNK = 1 << 16


@dataclass(frozen=True)
class ConsistentConfig:
    """Constructor config for :class:`ConsistentHashTable`."""

    seed: int = 0
    replicas: int = 1
    search: str = "count"
    position_dtype: str = "fixed32"


@register_table(
    "consistent",
    config=ConsistentConfig,
    description="Karger ring with O(log k) successor search",
    paper=True,
)
class ConsistentHashTable(DynamicHashTable):
    """Ring-based consistent hashing over a fixed-point unit circle."""

    name = "consistent"

    def __init__(
        self,
        family: HashFamily = None,
        seed: int = 0,
        replicas: int = 1,
        search: str = "count",
        position_dtype: str = "fixed32",
    ):
        super().__init__(family=family, seed=seed)
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        if search not in ("count", "bisect"):
            raise ValueError("search backend must be 'count' or 'bisect'")
        if position_dtype not in ("fixed32", "float32"):
            raise ValueError("position_dtype must be 'fixed32' or 'float32'")
        self._replicas = replicas
        self._search = search
        self._position_dtype = position_dtype
        self._ring_family = self.family.derive("ring")
        storage = np.uint32 if position_dtype == "fixed32" else np.float32
        self._ring_positions = np.empty(0, dtype=storage)
        self._ring_slots = np.empty(0, dtype=np.int64)

    @property
    def replicas(self) -> int:
        """Virtual nodes per server."""
        return self._replicas

    @property
    def position_dtype(self) -> str:
        """Ring-position storage: ``"fixed32"`` (32-bit fixed-point
        fractions of the unit circle) or ``"float32"`` (IEEE single
        precision, the layout a float-typed GPU emulator would keep).
        Identical routing on pristine memory; very different corruption
        behaviour -- an IEEE exponent/sign flip can push a position out
        of [0, 1] entirely, leaving its server unreachable (ablation
        E14)."""
        return self._position_dtype

    @property
    def search(self) -> str:
        """Batch lookup backend: ``"count"`` (data-parallel successor
        counting) or ``"bisect"`` (vectorized binary search)."""
        return self._search

    @property
    def ring_size(self) -> int:
        """Number of ring entries (servers x replicas)."""
        return int(self._ring_positions.size)

    def _to_circle(self, word: int):
        """Project a 64-bit word onto the unit circle in storage units."""
        fixed = (word >> (64 - _CIRCLE_BITS)) & _CIRCLE_MASK
        if self._position_dtype == "fixed32":
            return fixed
        return np.float32(fixed / float(1 << _CIRCLE_BITS))

    def _keys_of_words(self, words: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_to_circle` for request words."""
        fixed = (words >> np.uint64(64 - _CIRCLE_BITS)).astype(np.uint32)
        if self._position_dtype == "fixed32":
            return fixed
        return (fixed.astype(np.float64) / float(1 << _CIRCLE_BITS)).astype(
            np.float32
        )

    def _probe_forward(self, position):
        """The next representable circle position after ``position``."""
        if self._position_dtype == "fixed32":
            return (int(position) + 1) & _CIRCLE_MASK
        return np.float32(np.nextafter(np.float32(position), np.float32(2.0)))

    def _positions_into(self, server_word: int, occupied: set) -> List:
        """One server's ring positions, probed against ``occupied``.

        ``occupied`` accumulates across an event, so a multi-member
        join probes each later member against the earlier members'
        positions exactly as sequential joins would.
        """
        positions = []
        for replica in range(self._replicas):
            position = self._to_circle(self._ring_family.pair(server_word, replica))
            # Collisions are rare but possible at scale; probe forward so
            # the ring stays strictly sorted.
            while (
                position.item() if hasattr(position, "item") else position
            ) in occupied:
                position = self._probe_forward(position)
            occupied.add(
                position.item() if hasattr(position, "item") else position
            )
            positions.append(position)
        return positions

    def _merge_into_ring(self, values: np.ndarray, slots: np.ndarray) -> None:
        """Insert ``(position, slot)`` pairs in one merged ring copy.

        Positions are unique (collision-probed), so sorting the batch
        and inserting at its ``searchsorted`` indices produces exactly
        the ring that one-at-a-time ``np.insert`` calls would -- with
        one array copy per event instead of one per virtual node.
        """
        order = np.argsort(values, kind="stable")
        values = values[order]
        slots = slots[order]
        indices = np.searchsorted(self._ring_positions, values)
        self._ring_positions = np.insert(self._ring_positions, indices, values)
        self._ring_slots = np.insert(self._ring_slots, indices, slots)

    def _join_many(
        self, server_ids: List[Key], server_words: List[int]
    ) -> None:
        base_slot = self.server_count
        occupied = set(self._ring_positions.tolist())
        values: List = []
        slots: List[int] = []
        for offset, word in enumerate(server_words):
            # Words may arrive as a uint64 ndarray from an internal
            # caller; the scalar pair mix needs Python ints.
            for position in self._positions_into(int(word), occupied):
                values.append(position)
                slots.append(base_slot + offset)
        self._merge_into_ring(
            np.asarray(values, dtype=self._ring_positions.dtype),
            np.asarray(slots, dtype=np.int64),
        )
        self._server_ids.extend(server_ids)

    def _leave_many(
        self, server_ids: List[Key], server_slots: List[int]
    ) -> None:
        # Drop every ring entry of the departing slots, renumbering the
        # survivors exactly as sequential leaves would (each surviving
        # slot drops by the number of removed slots below it).
        removed = np.sort(np.asarray(server_slots, dtype=np.int64))
        keep = ~np.isin(self._ring_slots, removed)
        self._ring_positions = self._ring_positions[keep].copy()
        slots = self._ring_slots[keep]
        shift = np.searchsorted(removed, slots, side="left")
        self._ring_slots = (slots - shift).astype(np.int64)
        for slot in sorted(server_slots, reverse=True):
            del self._server_ids[slot]

    # -- routing ---------------------------------------------------------

    def route_word(self, word: int) -> int:
        """Scalar deployment path: O(log k) binary search (Section 2.1)."""
        self._require_servers()
        return int(self._ring_slots[self._successor_index(word)])

    def _successor_index(self, word: int) -> int:
        """Ring index of the clockwise successor of ``word``'s position."""
        key = self._ring_positions.dtype.type(self._to_circle(word))
        index = int(np.searchsorted(self._ring_positions, key, side="left"))
        if index == self._ring_positions.size:
            index = 0
        return index

    def _successor_indices(self, keys: np.ndarray) -> np.ndarray:
        """The ring index the batch route reads, each key on its own.

        ``count``: the entries below the key, as :meth:`_route_batch_count`
        counts them; ``bisect``: :meth:`_successor_index`'s binary search,
        run for all keys at once with ``lo``/``hi`` arrays.  Never a
        ``searchsorted`` over the stored ring: numpy narrows each key's
        search with the previous key's answer, which on a corrupted
        (unsorted) ring makes a key's answer depend on its batch-mates.
        """
        ring = self._ring_positions
        if self._search == "count":
            indices = np.searchsorted(np.sort(ring), keys, side="left")
        else:
            indices = np.zeros(keys.size, dtype=np.int64)
            hi = np.full(keys.size, ring.size, dtype=np.int64)
            for __ in range(ring.size.bit_length()):
                mid = (indices + hi) >> 1
                # Closed rows (lo == hi) may sit at ``ring.size``; clip
                # their gather and leave them where they are.
                below = ring.take(mid, mode="clip") < keys
                np.copyto(hi, mid, where=~below)
                np.copyto(indices, mid + 1, where=below & (indices < hi))
        indices[indices == ring.size] = 0
        return indices

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        """The next ``k`` distinct ring successors (DHash-style
        multi-slot placement), walked from the entry the route reads."""
        starts = self._successor_indices(self._keys_of_words(words))
        return self._walk_distinct_batch(starts, self._ring_slots, k)

    def _route_batch_count(self, keys: np.ndarray) -> np.ndarray:
        """``ring_slots[count(ring < key)]``, the count wrapping to 0.

        The count is taken over the ring as stored, in any order: a
        ``searchsorted`` over a sorted copy counts exactly the entries
        below each key, even on a corrupted ring (unsorted, NaN or
        infinite positions; NaN sorts last and is below no key).
        """
        ring = np.sort(self._ring_positions)
        out = np.empty(keys.size, dtype=np.int64)
        for start in range(0, keys.size, _COUNT_CHUNK):
            stop = start + _COUNT_CHUNK
            counts = np.searchsorted(ring, keys[start:stop], side="left")
            # A count of the whole ring wraps to entry 0.
            self._ring_slots.take(counts, mode="wrap", out=out[start:stop])
        return out

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        keys = self._keys_of_words(words)
        if self._search == "count":
            return self._route_batch_count(keys)
        return self._ring_slots[self._successor_indices(keys)]

    # -- delta-scoped epoch accounting -------------------------------------

    # The ring is minimally disruptive: a join steals exactly the arcs
    # preceding the new positions, a leave hands the departing arcs to
    # their successors.  The winning "score" is the (negated) clockwise
    # fixed-point distance to the winning ring position -- distinct
    # positions yield distinct distances from any key, so ties are
    # impossible and a strict comparison is exact.  float32 rings do not
    # get the kernel (nextafter probing breaks the uint arithmetic).

    def _delta_scores(self, words: np.ndarray):
        if self._position_dtype != "fixed32" or not self._ring_positions.size:
            return None
        keys = self._keys_of_words(words)
        winning = self._ring_positions[self._successor_indices(keys)]
        return -(winning - keys).astype(np.int64)

    def _delta_challenge(self, server_id: Key, words: np.ndarray):
        if self._position_dtype != "fixed32":
            return None
        slot = self._slot_of(server_id)
        positions = self._ring_positions[self._ring_slots == slot]
        if not positions.size:
            return None
        keys = self._keys_of_words(words)
        if positions.size > 4:
            # ``positions`` is a sorted slice of the sorted ring, so the
            # challenger's nearest clockwise position is a bisect over
            # its own positions -- O(log replicas) per key instead of
            # one full pass per replica.
            indices = np.searchsorted(positions, keys, side="left")
            indices[indices == positions.size] = 0
            best = positions[indices] - keys
        else:
            best = positions[0] - keys
            for position in positions[1:]:
                np.minimum(best, position - keys, out=best)
        return -best.astype(np.int64)

    # -- snapshot / restore ----------------------------------------------

    def _config_state(self) -> Dict[str, Any]:
        return {
            "seed": self._family.seed,
            "replicas": self._replicas,
            "search": self._search,
            "position_dtype": self._position_dtype,
        }

    def _state_payload(self) -> Dict[str, Any]:
        return {
            "ring_positions": self._ring_positions.copy(),
            "ring_slots": self._ring_slots.copy(),
        }

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        storage = self._ring_positions.dtype
        self._ring_positions = np.asarray(
            payload["ring_positions"], dtype=storage
        ).copy()
        self._ring_slots = np.asarray(
            payload["ring_slots"], dtype=np.int64
        ).copy()

    def memory_regions(self) -> List[MemoryRegion]:
        return [MemoryRegion("ring_positions", self._ring_positions)]
