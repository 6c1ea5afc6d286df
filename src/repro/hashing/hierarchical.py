"""Hierarchical (two-level) dynamic hashing.

Section 5.1 of the paper: "like the other methods HD hashing can scale
to much larger clusters, and even be used hierarchically (standard way
to scale such hashing systems [20, 24]) to handle extremely high numbers
of servers."  This module realises that deployment: an *outer* table
routes a request to a group (rack / cell / data centre), an *inner*
table per group routes it to a server.

Properties this buys, exercised by experiment E13:

* **lookup cost** splits into two small-table lookups (k_outer + k/g per
  group instead of one k-wide inference);
* **fault blast radius** shrinks: a leave or a corrupted inner memory
  only disturbs one group's ~g/k share of traffic;
* any algorithms compose -- HD over HD, consistent over HD, etc.

Servers are assigned to groups by their hash word (deterministic and
replica-reproducible); groups are fixed at construction, mirroring
physical topology.

Replica routing: the generic exclusion-rerank fallback of
:class:`~repro.hashing.base.DynamicHashTable` runs each salted rehash
through the full two-level path, so replica sets naturally spread
across groups exactly as fresh keys do -- a rack-aware placement falls
out of the composition for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import numpy as np

from ..errors import EmptyTableError
from ..hashfn import HashFamily, Key
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import TableSpec, make_table, register_table

__all__ = ["HierarchicalHashTable", "HierarchicalConfig"]


@dataclass(frozen=True)
class HierarchicalConfig:
    """Registry config for :class:`HierarchicalHashTable`.

    ``outer`` and ``inner`` are table specs (an algorithm name, or an
    ``{"algorithm": ..., "config": {...}}`` mapping).  A bare name
    inherits this config's ``seed``.
    """

    seed: int = 0
    n_groups: int = 4
    outer: TableSpec = "consistent"
    inner: TableSpec = "consistent"


def _sub_factory(spec: TableSpec, default_seed: int) -> Callable[[], DynamicHashTable]:
    if isinstance(spec, str):
        return lambda: make_table(spec, seed=default_seed)
    return lambda: make_table(spec)


def _build_hierarchical(config: HierarchicalConfig) -> "HierarchicalHashTable":
    return HierarchicalHashTable(
        outer_factory=_sub_factory(config.outer, config.seed),
        inner_factory=_sub_factory(config.inner, config.seed),
        n_groups=config.n_groups,
        seed=config.seed,
    )


@register_table(
    "hierarchical",
    config=HierarchicalConfig,
    description="two-level composition: outer table routes to a group",
    factory=_build_hierarchical,
)
class HierarchicalHashTable(DynamicHashTable):
    """Two-level composition of :class:`DynamicHashTable` instances."""

    name = "hierarchical"

    def __init__(
        self,
        outer_factory: Callable[[], DynamicHashTable],
        inner_factory: Callable[[], DynamicHashTable],
        n_groups: int,
        family: HashFamily = None,
        seed: int = 0,
    ):
        super().__init__(family=family, seed=seed)
        if n_groups < 1:
            raise ValueError("need at least one group")
        self._outer = outer_factory()
        if self._outer.server_count:
            raise ValueError("outer_factory must return an empty table")
        self._inners: List[DynamicHashTable] = []
        for group in range(n_groups):
            inner = inner_factory()
            if inner.server_count:
                raise ValueError("inner_factory must return empty tables")
            self._outer.join(group)
            self._inners.append(inner)
        self._group_of = {}

    @property
    def n_groups(self) -> int:
        """Number of groups (outer-table members)."""
        return len(self._inners)

    @property
    def outer(self) -> DynamicHashTable:
        """The group-selection table."""
        return self._outer

    def inner(self, group: int) -> DynamicHashTable:
        """The per-group server table."""
        return self._inners[group]

    def group_of(self, server_id: Key) -> int:
        """Group a server was assigned to."""
        return self._group_of[server_id]

    def _assign_group(self, server_word: int) -> int:
        return int(server_word % len(self._inners))

    # -- membership -------------------------------------------------------

    def _join(self, server_id: Key, server_word: int) -> None:
        group = self._assign_group(server_word)
        self._inners[group].join(server_id)
        self._group_of[server_id] = group

    def _leave(self, server_id: Key, slot: int) -> None:
        group = self._group_of.pop(server_id)
        self._inners[group].leave(server_id)

    def _join_many(
        self, server_ids: List[Key], server_words: List[int]
    ) -> None:
        # One bulk join per touched group: members land in each inner
        # table in event order, exactly as sequential joins would.  The
        # outer words transfer to each inner only when the families
        # match (always true for bare-name sub-specs, which inherit the
        # outer seed); otherwise the inner re-hashes.
        grouped: Dict[int, List[Key]] = {}
        grouped_words: Dict[int, List[int]] = {}
        for server_id, word in zip(server_ids, server_words):
            group = self._assign_group(word)
            grouped.setdefault(group, []).append(server_id)
            grouped_words.setdefault(group, []).append(word)
            self._group_of[server_id] = group
        for group, members in grouped.items():
            inner = self._inners[group]
            if inner.family.seed == self._family.seed:
                inner.join_many(members, grouped_words[group])
            else:
                inner.join_many(members)
        self._server_ids.extend(server_ids)

    def _leave_many(
        self, server_ids: List[Key], server_slots: List[int]
    ) -> None:
        grouped: Dict[int, List[Key]] = {}
        for server_id in server_ids:
            group = self._group_of.pop(server_id)
            grouped.setdefault(group, []).append(server_id)
        for group, members in grouped.items():
            self._inners[group].leave_many(members)
        for slot in sorted(server_slots, reverse=True):
            del self._server_ids[slot]

    # -- routing ------------------------------------------------------------

    def _route_via_groups(self, word: int) -> Key:
        """Outer pick, probing to the next group while groups are empty."""
        group_slot = self._outer.route_word(word)
        for offset in range(len(self._inners)):
            group = (group_slot + offset) % len(self._inners)
            inner = self._inners[group]
            if inner.server_count:
                return inner.server_ids[inner.route_word(word)]
        raise EmptyTableError("no group has any servers")

    def route_word(self, word: int) -> int:
        self._require_servers()
        return self._server_ids.index(self._route_via_groups(word))

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        """Two-level batch routing: one outer sweep, one inner sweep per
        non-empty group.

        The empty-group probe of :meth:`_route_via_groups` is
        precomputed as a group->group indirection, so the per-word work
        is entirely array-wide; the only Python loop is over the (few)
        distinct groups the batch actually touches.
        """
        n_groups = len(self._inners)
        counts = np.fromiter(
            (inner.server_count for inner in self._inners),
            dtype=np.int64,
            count=n_groups,
        )
        probe = np.empty(n_groups, dtype=np.int64)
        for group in range(n_groups):
            for offset in range(n_groups):
                target = (group + offset) % n_groups
                if counts[target]:
                    probe[group] = target
                    break
            else:
                raise EmptyTableError("no group has any servers")
        groups = probe[self._outer.route_batch(words)]
        slot_of = {
            server_id: slot
            for slot, server_id in enumerate(self._server_ids)
        }
        out = np.empty(words.size, dtype=np.int64)
        for group in np.unique(groups):
            inner = self._inners[int(group)]
            mask = groups == group
            inner_slots = inner.route_batch(words[mask])
            mapping = np.fromiter(
                (slot_of[server_id] for server_id in inner.server_ids),
                dtype=np.int64,
                count=inner.server_count,
            )
            out[mask] = mapping[inner_slots]
        return out

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        # Replicas are salted rehashes; each rehash round goes through
        # the two-level batched path (one outer sweep + per-group inner
        # sweeps).
        return self._rehash_replicas_batch(words, k)

    def lookup(self, key: Key) -> Key:
        """Two-level lookup (group, then server within the group)."""
        self._require_servers()
        return self._route_via_groups(self._family.word(key))

    # -- snapshot / restore -------------------------------------------------

    def _config_state(self) -> Dict[str, Any]:
        inner = self._inners[0]
        return {
            "seed": self._family.seed,
            "n_groups": self.n_groups,
            "outer": {
                "algorithm": self._outer.name,
                "config": self._outer._config_state(),
            },
            "inner": {
                "algorithm": inner.name,
                "config": inner._config_state(),
            },
        }

    @classmethod
    def _build_for_restore(cls, state: Dict[str, Any]) -> "HierarchicalHashTable":
        # The payload carries fully restored sub-table states, so skip
        # the constructor (which would build n_groups + 1 fresh tables
        # only for _load_payload to replace them) and hand _restore a
        # bare shell instead.
        table = cls.__new__(cls)
        DynamicHashTable.__init__(
            table, seed=state.get("config", {}).get("seed", 0)
        )
        table._outer = None
        table._inners = []
        table._group_of = {}
        return table

    def _state_payload(self) -> Dict[str, Any]:
        return {
            "outer": self._outer.state_dict(),
            "inners": [inner.state_dict() for inner in self._inners],
            "group_of": [
                (server_id, int(self._group_of[server_id]))
                for server_id in self._server_ids
            ],
        }

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        self._outer = DynamicHashTable.from_state(payload["outer"])
        self._inners = [
            DynamicHashTable.from_state(state) for state in payload["inners"]
        ]
        self._group_of = {
            server_id: int(group) for server_id, group in payload["group_of"]
        }

    # -- fault-injection surface ------------------------------------------------

    def memory_regions(self) -> List[MemoryRegion]:
        regions = []
        for region in self._outer.memory_regions():
            region.name = "outer/{}".format(region.name)
            regions.append(region)
        for group, inner in enumerate(self._inners):
            if not inner.server_count:
                continue
            for region in inner.memory_regions():
                region.name = "group{}/{}".format(group, region.name)
                regions.append(region)
        return regions
