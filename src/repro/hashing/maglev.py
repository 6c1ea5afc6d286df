"""Maglev hashing (Eisenbud et al., NSDI 2016) -- extension baseline.

Maglev is Google Cloud's software load balancer (reference [3] of the
paper).  Each server owns a permutation of a prime-sized lookup table;
table slots are filled by letting servers take turns claiming their next
preferred empty slot.  Lookup is a single O(1) table read; resizing
rebuilds the table but moves few keys because the permutations are
stable.

Churn is incremental in two layers, both bit-exact with the sequential
fill the NSDI paper describes (property-tested against a reference fill
in ``tests/hashing/test_maglev_incremental.py``):

* **cached permutation state** -- each member's offset/skip pair, its
  modular-inverse skip and its full permutation row are computed once
  at join and reused across every subsequent fill, so a membership
  event only hashes the *joining* server;
* **deferred fill** -- membership changes mark the lookup table stale
  instead of rebuilding it; the next route (or snapshot, or
  fault-injection surface) pays one :func:`_fill_table` for the whole
  batch of changes.  A ``Router.sync`` epoch or a leave+join
  autoscaling cycle therefore costs one table build, not one per event.

:func:`_fill_table` runs the NSDI turn order itself as a race over the
cached rows, at every pool size, and re-lists the free slots once the
tail would otherwise be all scans past claimed entries.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from ..errors import CapacityError, StateError
from ..hashfn import HashFamily, Key
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import register_table

__all__ = ["MaglevHashTable", "MaglevConfig"]

#: Default lookup-table size; prime and ~2x the largest pool exercised
#: by the experiments, trading table weight for fill speed in tests.
DEFAULT_TABLE_SIZE = 4099


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


def _fill_table(
    rows: List[List[int]],
    offsets: np.ndarray,
    inv_skips: np.ndarray,
    size: int,
) -> np.ndarray:
    """The NSDI fill as one race over the cached permutation rows.

    Servers take turns, in slot order, claiming their next preferred
    empty slot, so the table is bit-identical to the sequential fill.
    The race's cost is dominated by skip scans over already-claimed
    entries, and those concentrate in the tail (the expected scan per
    claim is ``1/(1 - fill_fraction)``).  Once the free count drops to
    ``2 * count``, the remaining free slots are re-listed in each
    server's rank order (recovered from the modular inverse of its
    skip: every free slot sits at or past every cursor, so racing over
    the compacted lists is exactly the sequential fill from this
    state), and the tail race runs scan-free.  Compacting earlier does
    not pay: re-listing costs O(count * free) while the scans it saves
    per halving are only O(size * ln 2).
    """
    count = len(rows)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count == 1:
        return np.zeros(size, dtype=np.int64)
    # The owner map doubles as the claimed flag: 0 means free, otherwise
    # the winning server's 1-based tag -- one byte per slot while the
    # tags fit, four past that.  It converts to the table wholesale at
    # the end: no append-per-claim buffer, no separate claimed array.
    owners = bytearray(size) if count < 256 else array("I", [0]) * size
    ptrs = [0] * (count + 1)
    indexed = list(enumerate(rows, 1))
    remaining = size
    compact_at = 2 * count
    while remaining >= count:
        for server, row in indexed:
            ptr = ptrs[server]
            while owners[row[ptr]]:
                ptr += 1
            owners[row[ptr]] = server
            ptrs[server] = ptr + 1
        remaining -= count
        if remaining <= compact_at and remaining:
            compact_at = 0
            free_slots = np.flatnonzero(np.asarray(memoryview(owners)) == 0)
            ranks = (
                (free_slots[None, :] - offsets[:, None]) * inv_skips[:, None]
            ) % size
            order = np.argsort(ranks, axis=1, kind="stable")
            indexed = list(enumerate(free_slots[order].tolist(), 1))
            ptrs = [0] * (count + 1)
    for server, row in indexed[:remaining]:
        ptr = ptrs[server]
        while owners[row[ptr]]:
            ptr += 1
        owners[row[ptr]] = server
    table = np.asarray(memoryview(owners)).astype(np.int64)
    table -= 1
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
        # Per-server full permutation rows as Python lists, computed once
        # per join and raced over by every subsequent fill.  Each row
        # references the table's one set of slot ints, so an entry costs
        # a pointer, not an int object of its own.
        self._rows: List[List[int]] = []
        self._positions = np.arange(table_size, dtype=np.int64)
        self._slot_ints = self._positions.astype(object)
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

    def _permutation(self, server_word: int):
        """One server's permutation parameters (offset, skip, 1/skip)
        and its permutation row.

        Derived from independent hash sub-families exactly as the NSDI
        construction prescribes; the modular inverse exists because the
        table size is prime (Fermat), and lets the fill's compaction
        recover a slot's rank in the server's permutation without
        scanning it.
        """
        size = self._table_size
        word = int(np.uint64(server_word))
        offset = int(self._offset_family.pair(word, 0) % size)
        skip = int(self._skip_family.pair(word, 0) % (size - 1)) + 1
        inv_skip = pow(skip, size - 2, size)
        row = self._slot_ints[(offset + skip * self._positions) % size].tolist()
        return (offset, skip, inv_skip), row

    def _materialized(self) -> np.ndarray:
        """The lookup table, filling it first if membership changed.

        Every read of routing state funnels through here, so a batch of
        membership events costs one fill at the next route, snapshot or
        fault-injection access -- never one per event.
        """
        if self._stale:
            self._table = _fill_table(
                self._rows, self._offsets, self._inv_skips, self._table_size
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
        params, row = self._permutation(server_word)
        self._server_words = np.append(self._server_words, np.uint64(server_word))
        self._params = np.concatenate(
            [self._params, np.asarray(params, dtype=np.int64)[:, None]], axis=1
        )
        self._rows.append(row)
        self._stale = True

    def _leave(self, server_id: Key, slot: int) -> None:
        self._server_words = np.delete(self._server_words, slot)
        self._params = np.delete(self._params, slot, axis=1)
        del self._rows[slot]
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
        words = np.asarray(payload["server_words"], dtype=np.uint64).copy()
        table = np.asarray(payload["table"], dtype=np.int64).copy()
        if words.shape != (len(server_ids),):
            raise StateError(
                "snapshot has {} server words for {} servers".format(
                    words.size, len(server_ids)
                )
            )
        entries = self._table_size if server_ids else 0
        if table.shape != (entries,):
            raise StateError(
                "snapshot table has {} entries; a table of size {} over {} "
                "servers holds {}".format(
                    table.size, self._table_size, len(server_ids), entries
                )
            )
        self._server_words = words
        self._params = np.empty((3, words.size), dtype=np.int64)
        self._rows = []
        for slot, word in enumerate(words.tolist()):
            self._params[:, slot], row = self._permutation(word)
            self._rows.append(row)
        # Install the snapshot's table verbatim (it may carry injected
        # corruption); the table is *not* stale -- a refill here would
        # silently repair what the snapshot promised to preserve.
        self._table = table
        self._stale = False

    def memory_regions(self) -> List[MemoryRegion]:
        return [MemoryRegion("lookup_table", self._materialized())]
