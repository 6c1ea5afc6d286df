"""Weight-by-virtual-multiplicity: heterogeneous capacity for any table.

Only weighted rendezvous carries per-server capacity weights natively
(the ``-w / ln U`` logarithm method); the other algorithms treat every
server as one slot.  Production fleets are heterogeneous, so this module
provides the generic fallback: :class:`VirtualWeightTable` wraps any
registered algorithm and realises a server of weight ``w`` as
``round(w * virtual_base)`` *virtual members* of the inner table, all
mapped back to the one real server.  Ownership then tracks the weight
vector in expectation for every inner algorithm whose placement is
uniform over members (all of them), at ``O(virtual_base)`` membership
cost per unit weight.

Routing stays batch-native: the inner table's vectorized kernel routes
the word batch to virtual slots, and one ``int64`` gather maps virtual
slots to real slots.  Replica sets come from the inner algorithm's own
ranking over virtual members, deduplicated onto distinct *real* servers
in ranking order (two virtual members of one server never count twice),
so placement is weight-aware for every replica and batch stays
bit-exact with scalar.  For the default rendezvous inner the dedup
collapses to a fused group-max over each real server's virtual block of
the pairwise weight matrix -- no per-virtual-slot top-k at all.

The wrapper registers as ``"weighted"``::

    table = make_table("weighted", algorithm="consistent",
                       virtual_base=8, config={"replicas": 4})
    table.join("big-box", weight=4.0)

:func:`weighted_table` picks the cheapest capable construction for a
spec: the algorithm itself when it is weight-native, the wrapper
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from ..hashfn import HashFamily, Key
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import algorithm_entry, make_table, register_table
from .rendezvous import RendezvousHashTable, _top_k_slots

__all__ = ["VirtualWeightTable", "WeightedTableConfig", "weighted_table"]

#: Default virtual members per unit of weight.  Higher values track the
#: weight vector more tightly (ownership error shrinks ~1/sqrt(base))
#: at linearly higher membership cost.
DEFAULT_VIRTUAL_BASE = 8


@dataclass(frozen=True)
class WeightedTableConfig:
    """Constructor config for :class:`VirtualWeightTable`."""

    seed: int = 0
    #: Registry name of the wrapped algorithm.
    algorithm: str = "rendezvous"
    #: Virtual members per unit of server weight.
    virtual_base: int = DEFAULT_VIRTUAL_BASE
    #: Constructor config forwarded to the wrapped algorithm.
    config: Mapping[str, Any] = field(default_factory=dict)


@register_table(
    "weighted",
    config=WeightedTableConfig,
    description="weight-by-virtual-multiplicity over any registered table",
)
class VirtualWeightTable(DynamicHashTable):
    """Capacity weights for any algorithm, via virtual members."""

    name = "weighted"
    supports_weights = True

    def __init__(
        self,
        family: Optional[HashFamily] = None,
        seed: int = 0,
        algorithm: str = "rendezvous",
        virtual_base: int = DEFAULT_VIRTUAL_BASE,
        config: Optional[Mapping[str, Any]] = None,
    ):
        super().__init__(family=family, seed=seed)
        if algorithm == self.name:
            raise ValueError("cannot nest the weighted wrapper in itself")
        if virtual_base < 1:
            raise ValueError("virtual_base must be at least 1")
        self._algorithm = algorithm
        self._virtual_base = int(virtual_base)
        self._inner_config: Dict[str, Any] = dict(config or {})
        # Same seed as the outer family: the inner table must hash the
        # same key stream to the same words, so pre-routed words flow
        # straight through to the inner kernels.
        self._inner = make_table(
            algorithm, seed=self.family.seed, **self._inner_config
        )
        self._weights: Dict[Key, float] = {}
        # Per-server virtual-id lists, kept from join to leave so the
        # leave path reuses the very same string objects (identity-fast
        # inner registry scans, no re-formatting).
        self._members: Dict[Key, List[str]] = {}
        self._owner_slot: Optional[np.ndarray] = None
        self._pending_weight = 1.0
        # Virtual-member words are derived from the real server's word
        # with one vectorized mix per event (instead of one scalar
        # string hash per virtual id): word XOR a per-index salt, then
        # one fmix64 avalanche.  The salts live under a dedicated
        # sub-family so virtual words can never systematically collide
        # with key or server words; they are cached and grown
        # geometrically on demand.
        self._vnode_family = self.family.derive("vnode")
        self._vnode_salts = np.empty(0, dtype=np.uint64)

    # -- introspection ----------------------------------------------------

    @property
    def inner(self) -> DynamicHashTable:
        """The wrapped algorithm holding the virtual members."""
        return self._inner

    @property
    def virtual_base(self) -> int:
        """Virtual members per unit of server weight."""
        return self._virtual_base

    @property
    def weights(self) -> Dict[Key, float]:
        """Current per-server weights (copy)."""
        return dict(self._weights)

    def weight_of(self, server_id: Key) -> float:
        """One server's weight (raises ``KeyError`` when absent)."""
        return self._weights[server_id]

    def multiplicity(self, weight: float) -> int:
        """Virtual members realising ``weight`` (at least one)."""
        return max(1, int(round(float(weight) * self._virtual_base)))

    # -- membership -------------------------------------------------------

    @staticmethod
    def _virtual_id(server_id: Key, index: int) -> str:
        """Deterministic, injective virtual-member identifier."""
        return "vnode:{}:{}:{!r}".format(
            index, type(server_id).__name__, server_id
        )

    def join(self, server_id: Key, weight: float = 1.0) -> None:
        """Add a server realised as ``multiplicity(weight)`` members."""
        if weight <= 0:
            raise ValueError("server weight must be positive")
        self._pending_weight = float(weight)
        super().join(server_id)

    def join_many(self, server_ids, weight: float = 1.0) -> None:
        """Add several servers, all at ``weight``, in one bulk event."""
        if weight <= 0:
            raise ValueError("server weight must be positive")
        self._pending_weight = float(weight)
        super().join_many(server_ids)

    def _virtual_ids(self, server_id: Key, weight: float) -> List[str]:
        # Same strings as _virtual_id, but the per-server suffix is
        # formatted once instead of once per virtual member.
        suffix = ":{}:{!r}".format(type(server_id).__name__, server_id)
        return [
            "vnode:%d%s" % (index, suffix)
            for index in range(self.multiplicity(weight))
        ]

    def _virtual_words(self, server_word: int, count: int) -> np.ndarray:
        """The inner-table words of one server's virtual members.

        XOR of two independently well-mixed words (the server's xxh64
        word and a splitmix-derived per-index salt) is itself uniform
        and injective per index, and every inner algorithm re-avalanches
        member words in its own routing mix -- no extra finalizer
        needed on the churn hot path.
        """
        if self._vnode_salts.size < count:
            self._vnode_salts = self._vnode_family.words(
                np.arange(max(count, 2 * self._vnode_salts.size, 16))
            )
        return self._vnode_salts[:count] ^ np.uint64(server_word)

    def _admit_virtual(
        self, virtual_ids: List[str], virtual_words: np.ndarray
    ) -> None:
        """One bulk inner join for a whole event, unwound on failure.

        Calls the inner bulk hook directly: the wrapper already
        validated the real server id, and virtual ids are injective by
        construction, so the public-path duplicate scan over the whole
        virtual pool would be pure overhead on the churn hot path.
        """
        try:
            self._inner._join_many(virtual_ids, virtual_words)
        except Exception:
            present = set(self._inner.server_ids)
            admitted = [vid for vid in virtual_ids if vid in present]
            if admitted:
                self._inner.leave_many(admitted)
            self._owner_slot = None
            raise

    def _evict_virtual(
        self, virtual_ids: List[str], outer_slots: List[int]
    ) -> None:
        """One bulk inner leave; direct hook call, as in admit.

        The inner slots come straight from the owner map (each real
        server's members form one contiguous block of the sorted map,
        so two binary searches bound it) instead of per-id registry
        scans.  ``virtual_ids`` must be grouped by ``outer_slots``
        order, member-index ascending within each group -- exactly how
        the blocks were admitted.
        """
        owner = self._owner_slot
        if owner is None:
            self._inner.leave_many(virtual_ids)
            return
        slots: List[int] = []
        for outer_slot in outer_slots:
            start = int(np.searchsorted(owner, outer_slot, side="left"))
            stop = int(np.searchsorted(owner, outer_slot, side="right"))
            slots.extend(range(start, stop))
        self._inner._leave_many(virtual_ids, slots)

    def _patch_owner_join(self, counts: List[int], base_slot: int) -> None:
        # New virtual members always land at the tail of the inner
        # registry, so the gather map grows by one contiguous block per
        # real server -- no rebuild.
        if self._owner_slot is None:
            return
        owners = np.repeat(
            np.arange(
                base_slot, base_slot + len(counts), dtype=np.int64
            ),
            counts,
        )
        self._owner_slot = np.concatenate([self._owner_slot, owners])

    def _patch_owner_leave(self, removed: List[int]) -> None:
        # Inner removal preserves the relative order of survivors, so
        # dropping the departed blocks and renumbering the remaining
        # owners keeps the map exact.  Removal batches are tiny (one
        # slot per departing real server), so per-slot compares beat
        # the set-operation machinery of ``np.isin``/``searchsorted``.
        if self._owner_slot is None:
            return
        owner = self._owner_slot
        keep = owner != removed[0]
        for slot in removed[1:]:
            keep &= owner != slot
        owner = owner[keep]
        for slot in reversed(removed):
            owner[owner > slot] -= 1
        self._owner_slot = owner

    def _join(self, server_id: Key, server_word: int) -> None:
        weight = self._pending_weight
        virtual_ids = self._virtual_ids(server_id, weight)
        self._admit_virtual(
            virtual_ids, self._virtual_words(server_word, len(virtual_ids))
        )
        self._weights[server_id] = weight
        self._members[server_id] = virtual_ids
        if self._owner_slot is not None:
            self._owner_slot = np.concatenate(
                [
                    self._owner_slot,
                    np.full(
                        len(virtual_ids), self.server_count, dtype=np.int64
                    ),
                ]
            )

    def _leave(self, server_id: Key, slot: int) -> None:
        self._weights.pop(server_id)
        virtual_ids = self._members.pop(server_id)
        owner = self._owner_slot
        if owner is None:
            self._inner.leave_many(virtual_ids)
            return
        # One server's members form one contiguous block of the sorted
        # owner map; everything past it owns a strictly higher outer
        # slot, so the renumber is a single tail subtraction.
        start = int(np.searchsorted(owner, slot, side="left"))
        stop = start + len(virtual_ids)
        self._inner._leave_many(virtual_ids, range(start, stop))
        if start:
            self._owner_slot = np.concatenate(
                [owner[:start], owner[stop:] - np.int64(1)]
            )
        else:
            self._owner_slot = owner[stop:] - np.int64(1)

    def _join_many(
        self, server_ids: List[Key], server_words: List[int]
    ) -> None:
        weight = self._pending_weight
        base_slot = self.server_count
        virtual_ids: List[str] = []
        virtual_words: List[np.ndarray] = []
        counts: List[int] = []
        for server_id, word in zip(server_ids, server_words):
            members = self._virtual_ids(server_id, weight)
            virtual_ids.extend(members)
            virtual_words.append(self._virtual_words(word, len(members)))
            counts.append(len(members))
        self._admit_virtual(virtual_ids, np.concatenate(virtual_words))
        start = 0
        for server_id, count in zip(server_ids, counts):
            self._weights[server_id] = weight
            self._members[server_id] = virtual_ids[start : start + count]
            start += count
        self._patch_owner_join(counts, base_slot)
        self._server_ids.extend(server_ids)

    def _leave_many(
        self, server_ids: List[Key], server_slots: List[int]
    ) -> None:
        virtual_ids: List[str] = []
        for server_id in server_ids:
            self._weights.pop(server_id)
            virtual_ids.extend(self._members.pop(server_id))
        self._evict_virtual(virtual_ids, server_slots)
        removed = sorted(server_slots)
        self._patch_owner_leave(removed)
        for slot in reversed(removed):
            del self._server_ids[slot]

    # -- routing ----------------------------------------------------------

    def _slot_map(self) -> np.ndarray:
        """Inner-slot -> outer-slot gather map, rebuilt after mutation.

        Built lazily so it always sees the settled registries (the base
        class appends/removes ``server_ids`` *after* ``_join``/
        ``_leave`` runs).
        """
        if self._owner_slot is None:
            outer = {
                self._virtual_id(server_id, index): slot
                for slot, server_id in enumerate(self._server_ids)
                for index in range(self.multiplicity(self._weights[server_id]))
            }
            self._owner_slot = np.fromiter(
                (outer[virtual_id] for virtual_id in self._inner.server_ids),
                dtype=np.int64,
                count=self._inner.server_count,
            )
        return self._owner_slot

    def route_word(self, word: int) -> int:
        self._require_servers()
        return int(self._slot_map()[self._inner.route_word(int(word))])

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        # Direct inner-hook dispatch: the outer batch wrapper already
        # normalized ``words``, and the inner pool is non-empty
        # whenever the outer one is (every server owns >= 1 member).
        return self._slot_map()[self._inner._route_batch(words)]

    # -- delta kernels ------------------------------------------------------

    def _delta_scores(self, words: np.ndarray) -> Optional[np.ndarray]:
        # The wrapper's winning score *is* the inner table's winning
        # score (the owner gather does not reorder winners), so the
        # delta contract composes: support it whenever the inner
        # algorithm does.
        return self._inner._delta_scores(words)

    def _delta_challenge(
        self, server_id: Key, words: np.ndarray
    ) -> Optional[np.ndarray]:
        members = self._members.get(server_id)
        if members is None:
            return None
        best: Optional[np.ndarray] = None
        for virtual_id in members:
            challenge = self._inner._delta_challenge(virtual_id, words)
            if challenge is None:
                return None
            if best is None:
                best = challenge
            else:
                np.maximum(best, challenge, out=best)
        return best

    # Replica sets must be distinct *real* servers, chosen by the inner
    # algorithm's own ranking over virtual members (weight-aware all
    # the way down the replica list, unlike the salted rehash fallback
    # this replaced).  Deduplicating the virtual ranking by real owner
    # keeps each real server's *best-ranked* member, so for the default
    # rendezvous inner the whole ranking collapses to a group-max: one
    # best-member weight per real server, then a top-k over real rows.
    # That reduction is exact because every real server's virtual
    # members form one contiguous block of inner slots in real-slot
    # order (members join back-to-back and ``np.delete`` preserves
    # order), so "first virtual occurrence" and "best weight, ties to
    # the lowest real slot" rank identically.  Generic inners take the
    # escalation path instead: ask for the top ``m`` virtual replicas,
    # map through the slot gather, dedup in ranking order, and double
    # ``m`` until ``k`` real servers surface.

    def _member_block_starts(self) -> Optional[np.ndarray]:
        """Start index of each real server's virtual-member block in
        inner slot order, or ``None`` if the blocks are not contiguous
        (never expected; checked so the fused reduction can never go
        quietly wrong)."""
        owner = self._slot_map()
        if owner.size == 0:
            return None
        diffs = np.diff(owner)
        if np.any(diffs < 0):
            return None
        starts = np.concatenate(([0], np.flatnonzero(diffs) + 1))
        if starts.size != self.server_count:
            return None
        return starts

    def _escalation_schedule(self, k: int) -> List[int]:
        """Virtual ranking depths the generic path tries, in order.

        Starts at ``2k`` -- virtual multiplicity makes adjacent ranks
        collide onto one real server often enough that ``k`` exactly
        would re-rank most words -- and doubles to the full virtual
        pool.  Scalar and batch walk the same schedule and re-dedup
        from scratch each round, so they agree without assuming the
        inner ranking is prefix-stable.
        """
        inner_count = self._inner.server_count
        depths = [min(2 * k, inner_count)]
        while depths[-1] < inner_count:
            depths.append(min(2 * depths[-1], inner_count))
        return depths

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        inner = self._inner
        if type(inner) is RendezvousHashTable:
            starts = self._member_block_starts()
            if starts is not None:
                count = self.server_count
                # Equal multiplicity (e.g. uniform weights) lets the
                # group-max run as a contiguous reshape reduction, which
                # is several times faster than the strided ``reduceat``.
                multiplicity = inner.server_count // count
                uniform = inner.server_count == count * multiplicity and (
                    np.array_equal(
                        starts,
                        np.arange(count, dtype=starts.dtype) * multiplicity,
                    )
                )
                out = np.empty((words.size, k), dtype=np.int64)
                for lo, hi, block in inner._weight_chunks(words):
                    if uniform:
                        best = block.reshape(count, multiplicity, -1).max(
                            axis=1
                        )
                    else:
                        best = np.maximum.reduceat(block, starts, axis=0)
                    np.invert(best, out=best)
                    out[lo:hi] = _top_k_slots(best, k).T
                return out
        return self._replicas_by_escalation(words, k)

    def _replicas_by_escalation(self, words: np.ndarray, k: int) -> np.ndarray:
        slot_map = self._slot_map()
        n = words.size
        out = np.empty((n, k), dtype=np.int64)
        pending = np.arange(n)
        filled = np.zeros(n, dtype=np.int64)
        for depth in self._escalation_schedule(k):
            if pending.size == 0:
                break
            outer = slot_map[
                self._inner.route_replicas_batch(words[pending], depth)
            ]
            # Row-wise in-order dedup to the first k distinct reals;
            # recomputed from scratch each round.
            rows = outer.shape[0]
            round_out = np.empty((rows, k), dtype=np.int64)
            round_filled = np.zeros(rows, dtype=np.int64)
            chosen = np.zeros((rows, self.server_count), dtype=bool)
            live = np.arange(rows)
            for column in range(depth):
                if live.size == 0:
                    break
                cand = outer[live, column]
                fresh = ~chosen[live, cand]
                accept = live[fresh]
                slots = cand[fresh]
                round_out[accept, round_filled[accept]] = slots
                chosen[accept, slots] = True
                round_filled[accept] += 1
                live = live[round_filled[live] < k]
            out[pending] = round_out
            filled[pending] = round_filled
            pending = pending[round_filled < k]
        for row in np.nonzero(filled < k)[0]:
            out[row] = self._complete_replicas(out[row, : filled[row]].tolist(), k)
        return out

    # -- snapshot / restore ------------------------------------------------

    def _config_state(self) -> Dict[str, Any]:
        return {
            "seed": self._family.seed,
            "algorithm": self._algorithm,
            "virtual_base": self._virtual_base,
            "config": dict(self._inner_config),
        }

    def _state_payload(self) -> Dict[str, Any]:
        return {
            "inner": self._inner.state_dict(),
            "weights": [
                (server_id, float(self._weights[server_id]))
                for server_id in self._server_ids
            ],
        }

    def _load_payload(
        self, payload: Dict[str, Any], server_ids: List[Key]
    ) -> None:
        self._inner = DynamicHashTable.from_state(payload["inner"])
        self._weights = {
            server_id: float(weight)
            for server_id, weight in payload["weights"]
        }
        self._members = {
            server_id: self._virtual_ids(server_id, weight)
            for server_id, weight in self._weights.items()
        }
        self._owner_slot = None

    # -- fault-injection surface -------------------------------------------

    def memory_regions(self) -> List[MemoryRegion]:
        """The wrapped algorithm's routing state (the corruptible part)."""
        return self._inner.memory_regions()

    def __repr__(self) -> str:
        return "VirtualWeightTable({}, servers={}, virtual={})".format(
            self._algorithm, self.server_count, self._inner.server_count
        )


def weighted_table(
    algorithm: str,
    seed: int = 0,
    virtual_base: int = DEFAULT_VIRTUAL_BASE,
    **config: Any,
) -> DynamicHashTable:
    """A weight-capable table for ``algorithm``, cheapest capable form.

    Weight-native algorithms are constructed directly; everything else
    is wrapped in a :class:`VirtualWeightTable`.
    """
    entry = algorithm_entry(algorithm)
    if getattr(entry.cls, "supports_weights", False):
        return make_table(algorithm, seed=seed, **config)
    return make_table(
        "weighted",
        seed=seed,
        algorithm=algorithm,
        virtual_base=virtual_base,
        config=config,
    )
