"""The common dynamic-hash-table protocol.

Every algorithm in this package -- the paper's three comparands plus the
extension baselines -- implements :class:`DynamicHashTable`:

* ``join(server_id)`` / ``leave(server_id)``, the emulator's special
  requests (Section 5.1), each a one-member ``join_many`` /
  ``leave_many`` event;
* ``lookup(key)``, the scalar deployment path used by the efficiency
  experiment;
* ``route_batch(words)``, the vectorized path used by the robustness and
  uniformity campaigns (for HD hashing, a gather from its per-position
  memo of the batched inference that stands in for the paper's GPU);
* ``lookup_replicas(key, k)`` / ``route_replicas_batch(words, k)``, the
  replica protocol: ``k`` pairwise-distinct servers per key, ordered by
  preference, with ``replicas[0]`` always equal to the single-server
  lookup -- the multi-slot placement production fleets route to;
* ``memory_regions()``, the routing state exposed to the fault injector.

Routing is split into key hashing (``HashFamily.word``) and word routing
(``route_word``) so that a pristine replica and a corrupted table can be
replayed on bit-identical word streams.

Each algorithm implements membership once, as one hook pair chosen by
who calls it: the bulk kernel ``_join_many``/``_leave_many`` (the
tables the weighted wrapper may hold, since it admits a server's
virtual members in one call) or the per-member ``_join``/``_leave``,
which the default bulk hooks loop over.  Scalar ``join``/``leave`` are
one-member bulk calls, so every entry point runs the same kernel.

Each algorithm implements replicas once, as its batch kernel
``_route_replicas_batch``; the scalar form reads one row of it.
Ranking algorithms take the top ``k`` (HD: the k nearest item-memory
rows; rendezvous: top-k scores), walk-based ones use
:meth:`_walk_distinct_batch` (ring successors, table scans), and jump
and hierarchical re-route salted rehashes (:meth:`_rehash_replicas_batch`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    DuplicateServerError,
    EmptyTableError,
    ReplicaCountError,
    StateError,
    UnknownServerError,
)
from ..hashfn import HashFamily, Key
from ..memory import MemoryRegion

__all__ = ["DynamicHashTable", "STATE_FORMAT_VERSION"]

#: Version stamp written into every :meth:`DynamicHashTable.state_dict`.
STATE_FORMAT_VERSION = 1

#: Salted-rehash attempts per requested replica before
#: ``_rehash_replicas_batch`` gives up and fills deterministically.  Each
#: attempt is ~uniform over the pool, so 16 attempts per replica puts
#: the fill path far out in the tail (it exists only to guarantee
#: termination, e.g. on corrupted indirection tables).
_REHASH_ATTEMPTS_PER_REPLICA = 16


class DynamicHashTable(ABC):
    """Abstract dynamic hash table mapping request keys to servers."""

    #: Human-readable algorithm name, overridden by each subclass.
    name: str = "abstract"

    #: Whether :meth:`join` accepts a ``weight`` keyword (heterogeneous
    #: capacity).  Weight-native algorithms (weighted rendezvous) and
    #: the generic virtual-multiplicity wrapper set this; everything
    #: else treats every server as unit capacity.
    supports_weights: bool = False

    def __init__(self, family: Optional[HashFamily] = None, seed: int = 0):
        self._family = family if family is not None else HashFamily(seed)
        self._server_ids: List[Key] = []

    # -- registry ---------------------------------------------------------

    @property
    def family(self) -> HashFamily:
        """The hash family realising this table's ``h(.)``."""
        return self._family

    @property
    def server_ids(self) -> Tuple[Key, ...]:
        """Identifiers of the servers currently in the pool, slot-ordered."""
        return tuple(self._server_ids)

    @property
    def server_count(self) -> int:
        """Number of servers currently in the pool."""
        return len(self._server_ids)

    def __contains__(self, server_id: Key) -> bool:
        return server_id in self._server_ids

    def __len__(self) -> int:
        return len(self._server_ids)

    def _slot_of(self, server_id: Key) -> int:
        try:
            return self._server_ids.index(server_id)
        except ValueError:
            raise UnknownServerError(server_id) from None

    # -- membership -------------------------------------------------------

    def join(self, server_id: Key) -> None:
        """Add a server to the pool (the emulator's join request)."""
        if server_id in self._server_ids:
            raise DuplicateServerError(server_id)
        self._join_many((server_id,), (self._family.word(server_id),))

    def leave(self, server_id: Key) -> None:
        """Remove a server from the pool (the emulator's leave request)."""
        self._leave_many((server_id,), (self._slot_of(server_id),))

    def join_many(self, server_ids: Sequence[Key]) -> None:
        """Add several servers as one membership event.

        Validation (duplicates against the pool and within the batch)
        happens up front, before any mutation.  The whole batch then
        goes through :meth:`_join_many`, which incremental algorithms
        override with a single array-level operation per event instead
        of one per member -- bit-identical to joining the same ids one
        at a time, in order.
        """
        ids = list(server_ids)
        if not ids:
            return
        pool = set(self._server_ids)
        for server_id in ids:
            if server_id in pool:
                raise DuplicateServerError(server_id)
            pool.add(server_id)
        self._join_many(ids, [self._family.word(server_id) for server_id in ids])

    def leave_many(self, server_ids: Sequence[Key]) -> None:
        """Remove several servers as one membership event.

        Validated up front (every id must be present, duplicates in the
        batch are rejected as the sequential semantics would be), then
        dispatched through :meth:`_leave_many` -- bit-identical to
        leaving the same ids one at a time, in order.
        """
        ids = list(server_ids)
        if not ids:
            return
        pool = set(self._server_ids)
        for server_id in ids:
            if server_id not in pool:
                raise UnknownServerError(server_id)
            pool.discard(server_id)
        self._leave_many(ids, [self._slot_of(server_id) for server_id in ids])

    def _join_many(
        self, server_ids: Sequence[Key], server_words: Sequence[int]
    ) -> None:
        """Join hook on a pre-validated batch, one member or many.

        Responsible for extending ``self._server_ids`` (so overrides
        can compute all new slots before any registry mutation).
        ``server_words`` may arrive as a ``uint64`` ndarray from an
        internal caller (the weighted wrapper derives virtual-member
        words vectorized); the default coerces each word back to a
        Python int so scalar hooks never see numpy's overflow-warning
        scalar arithmetic.  The default joins member by member through
        :meth:`_join`, so a failing member leaves the earlier ones
        joined, as sequential joins would.
        """
        for server_id, server_word in zip(server_ids, server_words):
            self._join(server_id, int(server_word))
            self._server_ids.append(server_id)

    def _leave_many(
        self, server_ids: Sequence[Key], server_slots: Sequence[int]
    ) -> None:
        """Leave hook on a pre-validated batch, one member or many.

        ``server_slots`` aligns with ``server_ids`` and holds each
        member's slot *before any removal* -- callers that already
        track their members' slots (the weighted wrapper's owner map)
        hand them over so array-level overrides skip the per-id
        registry scans.  Responsible for shrinking ``self._server_ids``.
        The default leaves member by member through :meth:`_leave`,
        moving each given slot down past the members already removed.
        """
        removed: List[int] = []
        for server_id, slot in zip(server_ids, server_slots):
            shift = bisect_left(removed, slot)
            insort(removed, slot)
            self._leave(server_id, slot - shift)
            del self._server_ids[slot - shift]

    def _join(self, server_id: Key, server_word: int) -> None:
        """Per-member join, looped over by the default :meth:`_join_many`;
        runs before the registry append."""
        raise NotImplementedError

    def _leave(self, server_id: Key, slot: int) -> None:
        """Per-member leave, looped over by the default
        :meth:`_leave_many`; runs before the registry removal."""
        raise NotImplementedError

    # -- routing ------------------------------------------------------------

    def _require_servers(self) -> None:
        if not self._server_ids:
            raise EmptyTableError("the table has no servers")

    def lookup(self, key: Key) -> Key:
        """Map one request key to a server identifier (scalar path)."""
        self._require_servers()
        return self._server_ids[self.route_word(self._family.word(key))]

    def words_of_keys(self, keys: Sequence[Key]) -> np.ndarray:
        """Hash a batch of request keys to pre-routed 64-bit words.

        Integer key batches take the vectorized path; mixed batches fall
        back to element-wise hashing.  Callers that route the same key
        set repeatedly (remap accounting, replay harnesses) hash once
        here and feed :meth:`route_batch` / :meth:`lookup_words`.
        """
        try:
            array = np.asarray(keys)
        except ValueError:
            # A ragged batch (a tuple among scalars) is no integer
            # array; the element-wise path rejects its unsupported keys.
            array = None
        if array is not None and array.dtype.kind in "iu" and array.ndim == 1:
            return self._family.words(array)
        return np.fromiter(
            (self._family.word(key) for key in keys),
            dtype=np.uint64,
            count=len(keys),
        )

    def lookup_words(self, words: np.ndarray) -> np.ndarray:
        """Map pre-hashed words to server identifiers (batch)."""
        slots = self.route_batch(words)
        return np.asarray(self._server_ids, dtype=object)[slots]

    def lookup_batch(self, keys: Sequence[Key]) -> np.ndarray:
        """Map a batch of request keys to server identifiers.

        The empty-pool check is delegated to :meth:`route_batch`, so it
        runs exactly once per call.
        """
        return self.lookup_words(self.words_of_keys(keys))

    @abstractmethod
    def route_word(self, word: int) -> int:
        """Route one pre-hashed 64-bit word to a server slot index."""

    def route_batch(self, words: np.ndarray) -> np.ndarray:
        """Route pre-hashed words to slot indices.

        Checks the pool once, normalises dtype, short-circuits empty
        batches, then dispatches to the subclass's :meth:`_route_batch`
        (vectorized where the algorithm provides one).
        """
        self._require_servers()
        words = np.asarray(words, dtype=np.uint64)
        if words.size == 0:
            return np.empty(0, dtype=np.int64)
        return self._route_batch(words)

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        """Algorithm-specific batch routing on a non-empty uint64 batch.

        This default loops over :meth:`route_word`; vectorized algorithms
        override it.  ``words`` is guaranteed non-empty and the pool
        non-empty (checked by :meth:`route_batch`).
        """
        return np.fromiter(
            (self.route_word(int(word)) for word in words),
            dtype=np.int64,
            count=words.size,
        )

    # -- delta-scoped epoch accounting ---------------------------------------

    def _delta_scores(self, words: np.ndarray) -> Optional[np.ndarray]:
        """Per-word *winning* score under the current table, or ``None``.

        The opt-in kernel behind the delta-scoped epoch close of
        :class:`~repro.service.migration.DeltaTracker`: algorithms with
        the minimal-disruption guarantee (a join only steals the keys
        the new server now wins; a leave only remaps the departing
        server's keys) return the score their ``route``/``lookup``
        winner won with, on a *higher-is-better* scale where ties are
        impossible or break toward the incumbent.  ``None`` (the
        default) means "no such kernel" and keeps the tracker on the
        full-recompute path.  Scores must be comparable across calls as
        long as membership only changes through join/leave events --
        in-place memory corruption voids them (the fault campaigns do
        not run epoch accounting through stale caches).
        """
        return None

    def _delta_challenge(
        self, server_id: Key, words: np.ndarray
    ) -> Optional[np.ndarray]:
        """``server_id``'s score against every word, or ``None``.

        The join-epoch side of the delta-scoped close: the score the
        (already joined) server would win each word with, on the same
        scale as :meth:`_delta_scores`.  A key moves to the joining
        server exactly where this is *strictly* greater than the cached
        winning score -- strictness encodes every algorithm's tie rule,
        since a joiner always ranks behind incumbents on ties (higher
        slot; ring positions never collide).
        """
        return None

    def _route_positions(self, words: np.ndarray) -> Optional[np.ndarray]:
        """Each word's routing position, or ``None`` (the default).

        Algorithms whose routing is a pure function of a small, fixed
        set of positions (HD: the word's circle node) return the
        ``int64`` position of every word, and :meth:`_position_owners`
        names the slot each position routes to.  A tracked
        :class:`~repro.service.migration.DeltaTracker` then closes any
        epoch by diffing the position owners -- exact whatever changed
        the table, memory faults included.
        """
        return None

    def _position_owners(self) -> np.ndarray:
        """Slot every position routes to now, as a new ``int64`` array.

        Only meaningful when :meth:`_route_positions` returns positions
        and the pool is non-empty.
        """
        raise NotImplementedError

    # -- replica routing ----------------------------------------------------

    def _check_replica_count(self, k: int) -> None:
        if k < 1:
            raise ReplicaCountError(
                "need at least one replica, got k={}".format(k)
            )
        if k > self.server_count:
            raise ReplicaCountError(
                "cannot choose {} pairwise-distinct replicas from a pool "
                "of {} servers".format(k, self.server_count)
            )

    def _complete_replicas(self, chosen: List[int], k: int) -> np.ndarray:
        """Deterministic fill to ``k`` distinct slots (lowest-slot first).

        The termination guarantee behind every replica kernel: walks
        and salted rehashes may fail to surface some slot
        (e.g. a corrupted indirection table that no longer covers the
        pool); missing slots are appended in slot order so the result
        is always ``k`` pairwise-distinct slots.
        """
        if len(chosen) < k:
            seen = set(chosen)
            for slot in range(self.server_count):
                if slot not in seen:
                    chosen.append(slot)
                    if len(chosen) == k:
                        break
        return np.asarray(chosen[:k], dtype=np.int64)

    def _walk_distinct_batch(
        self, starts: np.ndarray, seq: np.ndarray, k: int
    ) -> np.ndarray:
        """The first ``k`` distinct slots along a walk, for every word.

        ``starts`` holds one entry index per word and ``seq`` the slot
        sequence being walked (``seq[(start + step) % len(seq)]`` --
        ring successor slots, Maglev table entries, modular buckets).
        All rows advance in lockstep with a masked scatter, the same
        shape as ``jump_hash_batch``: at each step only the rows whose
        candidate is a not-yet-chosen slot accept it, and rows that have
        collected ``k`` distinct slots drop out of the active set.  Rows
        whose walk ends short (``seq`` does not cover the pool, e.g.
        after corruption) are finished by :meth:`_complete_replicas`.
        Each row reads only its own start, so it does not depend on the
        rest of the batch.

        ``seq`` values must already be valid slots in
        ``[0, server_count)``.
        """
        n = starts.size
        size = seq.size
        out = np.empty((n, k), dtype=np.int64)
        first = seq[starts % size]
        out[:, 0] = first
        if k == 1:
            return out
        chosen = np.zeros((n, self.server_count), dtype=bool)
        rows_all = np.arange(n)
        chosen[rows_all, first] = True
        filled = np.ones(n, dtype=np.int64)
        active = rows_all
        for step in range(1, size):
            if active.size == 0:
                break
            cand = seq[(starts[active] + step) % size]
            fresh = ~chosen[active, cand]
            rows = active[fresh]
            slots = cand[fresh]
            out[rows, filled[rows]] = slots
            chosen[rows, slots] = True
            filled[rows] += 1
            active = active[filled[active] < k]
        for row in np.nonzero(filled < k)[0]:
            out[row] = self._complete_replicas(out[row, : filled[row]].tolist(), k)
        return out

    def route_word_replicas(self, word: int, k: int) -> np.ndarray:
        """Route one pre-hashed word to ``k`` distinct server slots.

        This is the canonical statement of the replica contract, and
        row 0 of :meth:`route_replicas_batch` on a one-word batch; every
        replica entry point resolves to that one kernel:

        * **k distinct**: the result is an ``int64`` array of length
          ``k`` whose entries are pairwise-distinct slots, ordered by
          the algorithm's preference.  ``k`` outside
          ``[1, server_count]`` raises
          :class:`~repro.errors.ReplicaCountError`.
        * **head equals the route**: ``replicas[0]`` is the word's
          :meth:`route_batch` slot for every algorithm and table state.
          On an intact table that is also :meth:`route_word`; on a
          corrupted consistent ring the ``count`` backend and
          multi-probe's doubling search read the unsorted ring
          differently from the scalar binary search (ablation E10).
        * **pure function of (word, state)**: a row depends only on its
          word and the table -- not on the other words of a batch nor
          their order -- so batch (:meth:`route_replicas_batch`) and
          scalar rows are bit-exact and bit-identical table replicas
          agree, even on corrupted state.

        These properties are what the service layer's avoid-set
        failover builds on: both routers' one shared :meth:`route
        <repro.service.router._RoutingSurface.route>` serves a key from
        the first replica *not* in the avoid set -- flagging a server
        re-ranks traffic onto each key's next preferred replica without
        any membership change, and lifting the flag restores the
        original placement because the underlying replica sequence
        never moved.
        """
        self._require_servers()
        self._check_replica_count(k)
        return self._route_replicas_batch(np.asarray([word], dtype=np.uint64), k)[0]

    def route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        """Route pre-hashed words to ``k`` distinct slots each (batch).

        Returns an ``(len(words), k)`` ``int64`` matrix whose rows match
        :meth:`route_word_replicas` bit-exactly; column 0 equals
        :meth:`route_batch`.
        """
        self._require_servers()
        self._check_replica_count(k)
        words = np.asarray(words, dtype=np.uint64)
        if words.size == 0:
            return np.empty((0, k), dtype=np.int64)
        return self._route_replicas_batch(words, k)

    @abstractmethod
    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        """The algorithm's replica kernel: :meth:`route_replicas_batch`
        on a non-empty ``uint64`` batch, non-empty pool and valid ``k``."""

    def _rehash_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        """Replicas by salted rehash, for algorithms with no native ranking.

        ``replicas[0]`` is the :meth:`_route_batch` winner; round
        ``salt`` re-routes that rehash of every still-unfilled unique
        word through the batched kernel and accepts new slots, and
        :meth:`_complete_replicas` fills what the rounds leave short.
        """
        unique, inverse = np.unique(words, return_inverse=True)
        n = unique.size
        out = np.empty((n, k), dtype=np.int64)
        out[:, 0] = self._route_batch(unique)
        if k > 1:
            chosen = np.zeros((n, self.server_count), dtype=bool)
            chosen[np.arange(n), out[:, 0]] = True
            filled = np.ones(n, dtype=np.int64)
            pair_vec = self._family.derive("replica-exclusion").pair_vec
            active = np.arange(n)
            for salt in range(_REHASH_ATTEMPTS_PER_REPLICA * k):
                if active.size == 0:
                    break
                candidates = self._route_batch(
                    pair_vec(unique[active], np.uint64(salt))
                )
                fresh = ~chosen[active, candidates]
                rows = active[fresh]
                slots = candidates[fresh]
                out[rows, filled[rows]] = slots
                chosen[rows, slots] = True
                filled[rows] += 1
                active = active[filled[active] < k]
            for row in np.nonzero(filled < k)[0]:
                out[row] = self._complete_replicas(
                    out[row, : filled[row]].tolist(), k
                )
        return out[inverse]

    def lookup_replicas(self, key: Key, k: int) -> Tuple[Key, ...]:
        """Map one request key to ``k`` distinct server identifiers.

        ``lookup_replicas(key, 1)[0]`` is the key's
        :meth:`lookup_batch` server, and :meth:`lookup`'s on an intact
        table; a ``k`` above the pool size raises
        :class:`~repro.errors.ReplicaCountError`.
        """
        slots = self.route_word_replicas(self._family.word(key), k)
        return tuple(self._server_ids[int(slot)] for slot in slots)

    def lookup_words_replicas(self, words: np.ndarray, k: int) -> np.ndarray:
        """Map pre-hashed words to ``(n, k)`` server identifiers."""
        slots = self.route_replicas_batch(words, k)
        return np.asarray(self._server_ids, dtype=object)[slots]

    def lookup_replicas_batch(self, keys: Sequence[Key], k: int) -> np.ndarray:
        """Map a key batch to ``(len(keys), k)`` server identifiers."""
        return self.lookup_words_replicas(self.words_of_keys(keys), k)

    # -- snapshot / restore -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """A complete, restorable snapshot of this table.

        The snapshot captures the *live* routing state (including any
        corruption injected through :meth:`memory_regions`), so a replica
        built by :meth:`from_state` routes bit-identically without
        replaying the join history.  Arrays in the returned dict are
        copies; use :mod:`repro.service.snapshot` to serialize them.
        """
        return {
            "format": STATE_FORMAT_VERSION,
            "algorithm": self.name,
            "config": dict(self._config_state()),
            "server_ids": list(self._server_ids),
            "payload": self._state_payload(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "DynamicHashTable":
        """Rebuild a table from a :meth:`state_dict` snapshot.

        Dispatches through the algorithm registry, so
        ``DynamicHashTable.from_state(state)`` restores any registered
        algorithm; calling it on a concrete subclass additionally checks
        that the snapshot matches that subclass.
        """
        from .registry import table_class

        if state.get("format") != STATE_FORMAT_VERSION:
            raise StateError(
                "unsupported snapshot format {!r}".format(state.get("format"))
            )
        table = table_class(state["algorithm"])._build_for_restore(state)
        if cls is not DynamicHashTable and not isinstance(table, cls):
            raise StateError(
                "snapshot holds a {!r} table, not {}".format(
                    state["algorithm"], cls.__name__
                )
            )
        table._restore(state)
        return table

    @classmethod
    def _build_for_restore(cls, state: Dict[str, Any]) -> "DynamicHashTable":
        """Construct the (empty) table a snapshot will be installed into.

        Default: registry construction from the snapshot's config.
        Subclasses whose constructors do discarded work (derive a
        codebook the payload supersedes, build sub-tables the payload
        replaces) override this to build a cheaper shell.
        """
        from .registry import make_table

        return make_table(state["algorithm"], **state.get("config", {}))

    def _restore(self, state: Dict[str, Any]) -> None:
        if state.get("algorithm") != self.name:
            raise StateError(
                "snapshot algorithm {!r} does not match table {!r}".format(
                    state.get("algorithm"), self.name
                )
            )
        server_ids = list(state["server_ids"])
        self._load_payload(state.get("payload", {}), server_ids)
        self._server_ids = server_ids

    def _config_state(self) -> Dict[str, Any]:
        """Constructor kwargs that rebuild an equivalent empty table."""
        return {"seed": self._family.seed}

    def _state_payload(self) -> Dict[str, Any]:
        """Algorithm-specific routing state (arrays are copied)."""
        return {}

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        """Install a :meth:`_state_payload` snapshot into a fresh table.

        Default: deterministically replay the joins (exact for algorithms
        whose state is a pure function of the join sequence, but blind to
        post-snapshot memory corruption).  Every built-in algorithm
        overrides this with a direct state install.
        """
        self._server_ids = []
        self._join_many(
            server_ids, [self._family.word(server_id) for server_id in server_ids]
        )

    # -- fault-injection surface --------------------------------------------

    @abstractmethod
    def memory_regions(self) -> List[MemoryRegion]:
        """Live routing-state regions exposed to the fault injector.

        Regions are views over the current arrays; they are invalidated
        by ``join``/``leave`` (fetch them after the topology settles).
        """

    def __repr__(self) -> str:
        return "{}(servers={})".format(type(self).__name__, self.server_count)
