"""Maglev hashing (Eisenbud et al., NSDI 2016) -- extension baseline.

Maglev is Google Cloud's software load balancer (reference [3] of the
paper).  Each server owns a permutation of a prime-sized lookup table;
table slots are filled by letting servers take turns claiming their next
preferred empty slot.  Lookup is a single O(1) table read; resizing
rebuilds the table but moves few keys because the permutations are
stable.

Churn is incremental in two layers, both bit-exact with the sequential
fill the NSDI paper describes (property-tested in
``tests/hashing/test_maglev_incremental.py``):

* **cached permutation state** -- each member's offset/skip pair, its
  modular-inverse skip and its full permutation row are computed once
  at join and reused across every subsequent fill, so a membership
  event only hashes the *joining* server;
* **deferred bulk fill** -- membership changes mark the lookup table
  stale instead of rebuilding it; the next route (or snapshot, or
  fault-injection surface) pays one :func:`_fill_table` for the whole
  batch of changes.  A ``Router.sync`` epoch or a leave+join
  autoscaling cycle therefore costs one table build, not one per event.

:func:`_fill_table` itself is the bulk-array construction (HashGraph
style): a round-synchronous phase advances every cursor with masked
window gathers and commits each round's longest duplicate-free prefix
at once, and a free-slot-centric *race* finishes the end game (or, for
small pools, the whole fill) where per-round vectorization degenerates.
The sequential reference fill is kept as :func:`_fill_reference`, the
oracle the property tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from ..errors import CapacityError
from ..hashfn import HashFamily, Key
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import register_table

__all__ = ["MaglevHashTable", "MaglevConfig"]

#: Default lookup-table size; prime and ~2x the largest pool exercised
#: by the experiments, trading table weight for fill speed in tests.
DEFAULT_TABLE_SIZE = 4099

#: Pools at or below this size fill fastest through the scalar race
#: over cached permutation rows; larger pools amortize the vectorized
#: round phase across more claims per numpy call.  Tuned empirically at
#: the perf-profile shapes (509x16 and 4099x64).
_RACE_COUNT_CUTOVER = 32

#: Lookahead width (entries per cursor) of the round phase's masked
#: advance gather.
_ADVANCE_WINDOW = 16


def _is_prime(value: int) -> bool:
    if value < 2:
        return False
    if value % 2 == 0:
        return value == 2
    divisor = 3
    while divisor * divisor <= value:
        if value % divisor == 0:
            return False
        divisor += 2
    return True


def _fill_reference(
    offsets: np.ndarray, skips: np.ndarray, size: int
) -> np.ndarray:
    """The sequential NSDI fill: servers take turns claiming their next
    preferred empty slot.  Kept as the bit-exactness oracle for
    :func:`_fill_table`; every production fill goes through the bulk
    path."""
    count = offsets.size
    if count == 0:
        return np.empty(0, dtype=np.int64)
    table = np.full(size, -1, dtype=np.int64)
    next_index = np.zeros(count, dtype=np.int64)
    filled = 0
    while filled < size:
        for slot in range(count):
            position = (
                int(offsets[slot]) + int(skips[slot]) * int(next_index[slot])
            ) % size
            next_index[slot] += 1
            while table[position] >= 0:
                position = (
                    int(offsets[slot])
                    + int(skips[slot]) * int(next_index[slot])
                ) % size
                next_index[slot] += 1
            table[position] = slot
            filled += 1
            if filled == size:
                break
    return table


def _race(
    table: np.ndarray,
    lists: List[List[int]],
    size: int,
    count: int,
    remaining: int,
) -> None:
    """Finish a fill by racing servers over their free-slot claim lists.

    ``lists[s]`` is server ``s``'s remaining free slots in permutation
    (rank) order -- every free slot has rank at or past every cursor, so
    restricting the sequential fill to free slots in round-robin turn
    order is *exactly* the sequential fill from this state.  Claims are
    buffered and scattered into ``table`` in one write at the end.
    """
    claimed = bytearray(size)
    ptrs = [0] * count
    won_slots: List[int] = []
    won_by: List[int] = []
    append_slot = won_slots.append
    append_srv = won_by.append
    while True:
        for server in range(count):
            lst = lists[server]
            ptr = ptrs[server]
            while claimed[lst[ptr]]:
                ptr += 1
            slot = lst[ptr]
            claimed[slot] = 1
            append_slot(slot)
            append_srv(server)
            ptrs[server] = ptr + 1
            remaining -= 1
            if not remaining:
                table[won_slots] = won_by
                return


def _race_full(
    table: np.ndarray,
    lists: List[List[int]],
    offsets: np.ndarray,
    inv_skips: np.ndarray,
    size: int,
    count: int,
) -> None:
    """A whole fill as one race, compacting claim lists as slots fill.

    The plain race's cost is dominated by skip scans over already-
    claimed entries, and those concentrate in the tail (the expected
    scan per claim is ``1/(1 - fill_fraction)``).  Once the free count
    drops to ``2 * count``, the remaining free slots are re-listed in
    each server's rank order (recovered from the modular inverse of its
    skip -- the same lemma as the round phase's end game: every free
    slot sits at or past every cursor, so racing over the compacted
    lists is exactly the sequential fill from this state), and the tail
    race runs scan-free.  Compacting earlier does not pay: re-listing
    costs O(count * free) while the scans it saves per halving are only
    O(size * ln 2).
    """
    # One byte-per-slot owner map doubles as the claimed flag: 0 means
    # free, otherwise the winning server's 1-based tag (the cutover
    # keeps count + 1 < 256).  A full fill converts it wholesale at the
    # end -- no append-per-claim buffer, no separate claimed array.
    owners = bytearray(size)
    ptrs = [0] * (count + 1)
    indexed = list(enumerate(lists, 1))
    remaining = size
    compact_at = 2 * count
    while remaining >= count:
        for server, lst in indexed:
            ptr = ptrs[server]
            while owners[lst[ptr]]:
                ptr += 1
            owners[lst[ptr]] = server
            ptrs[server] = ptr + 1
        remaining -= count
        if remaining <= compact_at and remaining:
            compact_at = 0
            free_slots = np.nonzero(
                np.frombuffer(owners, dtype=np.uint8) == 0
            )[0].astype(np.int64)
            ranks = (
                (free_slots[None, :] - offsets[:, None]) * inv_skips[:, None]
            ) % size
            order = np.argsort(ranks, axis=1, kind="stable")
            indexed = list(enumerate(free_slots[order].tolist(), 1))
            ptrs = [0] * (count + 1)
    for server, lst in indexed[:remaining]:
        ptr = ptrs[server]
        while owners[lst[ptr]]:
            ptr += 1
        owners[lst[ptr]] = server
    table[:] = np.frombuffer(owners, dtype=np.uint8)
    table -= 1


def _fill_table(
    claim_lists: List[List[int]],
    offsets: np.ndarray,
    skips: np.ndarray,
    inv_skips: np.ndarray,
    size: int,
) -> np.ndarray:
    """Bulk Maglev fill, bit-identical to :func:`_fill_reference`.

    Small pools go straight to the scalar race over the cached
    permutation lists (with its end-game compaction).  Large pools run
    round-synchronous vectorized claiming: every cursor advances past
    claimed entries through a masked window gather, each round commits
    its longest duplicate-free candidate prefix in one scatter (exact,
    because claims by earlier-turn servers cannot change a later
    server's first free entry unless they *are* that entry -- a
    duplicate), and the remaining suffix retries.  When few free slots
    remain the round phase degenerates (every round is mostly
    collisions), so the end game switches to the race over rank-sorted
    free slots, recovering each server's claim order from the modular
    inverse of its skip.

    The permutation matrix the round phase gathers from is rebuilt here
    from the offset/skip pairs: only pools past the race cutover need
    it, so membership events never pay the matrix copy.
    """
    count = len(claim_lists)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    table = np.full(size, -1, dtype=np.int64)
    if count == 1:
        table[:] = 0
        return table
    if count <= _RACE_COUNT_CUTOVER:
        # Servers that joined while the pool was past the cutover have
        # no cached claim list (the round phase never reads them);
        # materialize the stragglers into the shared cache now.
        for index, lst in enumerate(claim_lists):
            if lst is None:
                claim_lists[index] = (
                    (
                        offsets[index]
                        + skips[index] * np.arange(size, dtype=np.int64)
                    )
                    % size
                ).tolist()
        _race_full(table, claim_lists, offsets, inv_skips, size, count)
        return table
    perm = (
        offsets[:, None]
        + skips[:, None] * np.arange(size, dtype=np.int64)
    ) % size
    perm_flat = perm.ravel()
    cursor = np.zeros(count, dtype=np.int64)
    rows = np.arange(count)
    row_base = rows * size
    first_claim = np.full(size, -1, dtype=np.int64)
    win_off = np.arange(_ADVANCE_WINDOW)
    filled = 0
    endgame_at = min(2 * count, size - 1)
    while filled < size:
        free = size - filled
        if free <= endgame_at:
            free_slots = np.nonzero(table < 0)[0]
            ranks = (
                (free_slots[None, :] - offsets[:, None]) * inv_skips[:, None]
            ) % size
            order = np.argsort(ranks, axis=1, kind="stable")
            _race(table, free_slots[order].tolist(), size, count, free)
            return table
        width = min(count, free)
        start = 0
        while start < width:
            turn = rows[start:width]
            cand = perm_flat[row_base[start:width] + cursor[start:width]]
            blocked = table[cand] >= 0
            while blocked.any():
                stuck = turn[blocked]
                at = cursor[stuck]
                window = perm_flat[
                    row_base[stuck][:, None]
                    + (at[:, None] + win_off[None, :]) % size
                ]
                window_free = table[window] < 0
                has_free = window_free.any(axis=1)
                advance = np.where(
                    has_free, window_free.argmax(axis=1), _ADVANCE_WINDOW
                )
                cursor[stuck] = at + advance
                cand[blocked] = perm_flat[row_base[stuck] + cursor[stuck] % size]
                blocked = table[cand] >= 0
            # First duplicate in turn order: the reversed scatter keeps
            # the earliest claimant of every candidate slot.
            first_claim[cand[::-1]] = turn[::-1]
            duplicate = first_claim[cand] != turn
            prefix = int(duplicate.argmax()) if duplicate.any() else turn.size
            first_claim[cand] = -1
            table[cand[:prefix]] = turn[:prefix]
            cursor[start : start + prefix] += 1
            filled += prefix
            start += prefix
            if filled == size:
                break
    return table


@dataclass(frozen=True)
class MaglevConfig:
    """Constructor config for :class:`MaglevHashTable`."""

    seed: int = 0
    table_size: int = DEFAULT_TABLE_SIZE


@register_table(
    "maglev",
    config=MaglevConfig,
    description="Google Maglev O(1) prime lookup table",
)
class MaglevHashTable(DynamicHashTable):
    """Maglev consistent hashing with a prime lookup table."""

    name = "maglev"

    def __init__(
        self,
        family: HashFamily = None,
        seed: int = 0,
        table_size: int = DEFAULT_TABLE_SIZE,
    ):
        super().__init__(family=family, seed=seed)
        if not _is_prime(table_size):
            raise ValueError("Maglev table size must be prime")
        self._table_size = table_size
        self._offset_family = self.family.derive("maglev-offset")
        self._skip_family = self.family.derive("maglev-skip")
        self._server_words = np.empty(0, dtype=np.uint64)
        # offsets / skips / inverse skips as rows of one matrix, so a
        # membership event is one concatenate or delete, not three.
        self._params = np.empty((3, 0), dtype=np.int64)
        # Per-server full permutation rows as Python lists: the scalar
        # race's claim lists, computed once per join and reused across
        # every subsequent fill.  The round phase's permutation matrix
        # is rebuilt on demand inside _fill_table instead of being
        # maintained here -- small pools never need it.
        self._claim_lists: List[List[int]] = []
        self._positions = np.arange(table_size, dtype=np.int64)
        self._table = np.empty(0, dtype=np.int64)
        self._stale = False

    @property
    def table_size(self) -> int:
        """Size of the prime lookup table."""
        return self._table_size

    @property
    def _offsets(self) -> np.ndarray:
        return self._params[0]

    @property
    def _skips(self) -> np.ndarray:
        return self._params[1]

    @property
    def _inv_skips(self) -> np.ndarray:
        return self._params[2]

    def _offset_skip(self, server_word: int):
        """One server's permutation parameters (offset, skip, 1/skip).

        Derived from independent hash sub-families exactly as the NSDI
        construction prescribes; the modular inverse exists because the
        table size is prime (Fermat), and lets the end-game race recover
        a slot's rank in the server's permutation without scanning it.
        """
        size = self._table_size
        word = np.uint64(server_word)
        offset = int(self._offset_family.pair(int(word), 0) % size)
        skip = int(self._skip_family.pair(int(word), 0) % (size - 1)) + 1
        inv_skip = pow(skip, size - 2, size)
        return offset, skip, inv_skip

    def _materialized(self) -> np.ndarray:
        """The lookup table, filling it first if membership changed.

        Every read of routing state funnels through here, so a batch of
        membership events costs one bulk fill at the next route,
        snapshot or fault-injection access -- never one per event.
        """
        if self._stale:
            self._table = _fill_table(
                self._claim_lists,
                self._offsets,
                self._skips,
                self._inv_skips,
                self._table_size,
            )
            self._stale = False
        return self._table

    def _join(self, server_id: Key, server_word: int) -> None:
        if self.server_count + 1 > self._table_size:
            raise CapacityError(
                "Maglev table of size {} cannot hold {} servers".format(
                    self._table_size, self.server_count + 1
                )
            )
        offset, skip, inv_skip = self._offset_skip(server_word)
        self._server_words = np.append(self._server_words, np.uint64(server_word))
        self._params = np.concatenate(
            [
                self._params,
                np.asarray([[offset], [skip], [inv_skip]], dtype=np.int64),
            ],
            axis=1,
        )
        if self.server_count < _RACE_COUNT_CUTOVER:
            row = (offset + skip * self._positions) % self._table_size
            self._claim_lists.append(row.tolist())
        else:
            # Past the cutover only the round phase fills, and it reads
            # offsets/skips; the race path materializes missing lists
            # lazily if the pool ever shrinks back.
            self._claim_lists.append(None)
        self._stale = True

    def _leave(self, server_id: Key, slot: int) -> None:
        self._server_words = np.delete(self._server_words, slot)
        self._params = np.delete(self._params, slot, axis=1)
        del self._claim_lists[slot]
        self._stale = True

    def route_word(self, word: int) -> int:
        self._require_servers()
        entry = int(self._materialized()[word % self._table_size])
        return entry % self.server_count

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        table = self._materialized()
        if words.size == 1:
            entry = int(table[int(words[0]) % self._table_size])
            return np.asarray([entry % self.server_count], dtype=np.int64)
        entries = table[(words % np.uint64(self._table_size)).astype(np.int64)]
        return entries % np.int64(self.server_count)

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        """Replicas by walking the lookup table forward from the key's
        entry -- Maglev's O(1) lookup repeated with exclusions; entries
        reduce modulo the pool size, as lookups read corrupted ones."""
        table = self._materialized()
        starts = (words % np.uint64(self._table_size)).astype(np.int64)
        return self._walk_distinct_batch(
            starts, table % np.int64(self.server_count), k
        )

    # -- snapshot / restore ----------------------------------------------

    def _config_state(self) -> Dict[str, Any]:
        return {"seed": self._family.seed, "table_size": self._table_size}

    def _state_payload(self) -> Dict[str, Any]:
        return {
            "server_words": self._server_words.copy(),
            "table": self._materialized().copy(),
        }

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        self._server_words = np.asarray(
            payload["server_words"], dtype=np.uint64
        ).copy()
        size = self._table_size
        count = self._server_words.size
        offsets = np.empty(count, dtype=np.int64)
        skips = np.empty(count, dtype=np.int64)
        inv_skips = np.empty(count, dtype=np.int64)
        for slot in range(count):
            offsets[slot], skips[slot], inv_skips[slot] = self._offset_skip(
                int(self._server_words[slot])
            )
        self._params = np.vstack([offsets, skips, inv_skips])
        # Claim lists rebuild lazily at the next race-path fill.
        self._claim_lists = [None] * count
        # Install the snapshot's table verbatim (it may carry injected
        # corruption); the table is *not* stale -- a refill here would
        # silently repair what the snapshot promised to preserve.
        self._table = np.asarray(payload["table"], dtype=np.int64).copy()
        self._stale = False

    def memory_regions(self) -> List[MemoryRegion]:
        return [MemoryRegion("lookup_table", self._materialized())]
