"""Consistent hashing with bounded loads (Mirrokni et al., SODA 2018).

Reference [13] of the paper: plain consistent hashing can overload a
server whose arc happens to be long.  The bounded-loads variant caps each
server at ``ceil(c * m / k)`` keys (``c`` > 1 the balance parameter, ``m``
keys, ``k`` servers); a key whose successor is full walks clockwise to
the next server with spare capacity.

Placement is defined over a *population* of keys, so the balanced
assignment lives in :meth:`assign_batch`; single-key ``route_word`` is
the plain consistent-hashing successor (capacity bookkeeping is
meaningless for one key).  Included as an extension comparand for the
uniformity experiment: it shows the classical way to buy uniformity with
lookup-time complexity, against HD hashing's way of buying robustness
with memory.

Replica routing: inherited from
:class:`~repro.hashing.consistent.ConsistentHashTable` -- ``k`` distinct
ring successors.  Single-key routing here *is* the plain successor rule
(capacity bookkeeping is population-level, see :meth:`assign_batch`),
so the inherited walk keeps ``replicas[0] == lookup`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from ..hashfn import HashFamily
from .consistent import ConsistentHashTable
from .registry import register_table

__all__ = ["BoundedLoadConsistentHashTable", "BoundedConfig"]


@dataclass(frozen=True)
class BoundedConfig:
    """Constructor config for :class:`BoundedLoadConsistentHashTable`."""

    seed: int = 0
    replicas: int = 1
    balance: float = 1.25


@register_table(
    "bounded-consistent",
    config=BoundedConfig,
    description="consistent hashing with bounded loads (SODA 2018)",
)
class BoundedLoadConsistentHashTable(ConsistentHashTable):
    """Consistent hashing with the bounded-loads placement rule."""

    name = "bounded-consistent"

    def __init__(
        self,
        family: HashFamily = None,
        seed: int = 0,
        replicas: int = 1,
        balance: float = 1.25,
    ):
        super().__init__(family=family, seed=seed, replicas=replicas)
        if balance <= 1.0:
            raise ValueError("balance parameter c must exceed 1")
        self._balance = balance

    @property
    def balance(self) -> float:
        """The load-balance parameter ``c``."""
        return self._balance

    def _config_state(self) -> Dict[str, Any]:
        return {
            "seed": self._family.seed,
            "replicas": self._replicas,
            "balance": self._balance,
        }

    def capacity_for(self, n_keys: int) -> int:
        """Per-server key capacity ``ceil(c * m / k)`` for ``m`` keys."""
        self._require_servers()
        return math.ceil(self._balance * n_keys / self.server_count)

    def assign_batch(self, words: np.ndarray) -> np.ndarray:
        """Assign a key population with the bounded-loads rule.

        Keys are processed in stream order; each key lands on the first
        ring successor whose load is below capacity.  Returns slot
        indices aligned with ``words``.
        """
        self._require_servers()
        words = np.asarray(words, dtype=np.uint64)
        capacity = self.capacity_for(words.size)
        ring_size = self._ring_positions.size
        loads = np.zeros(self.server_count, dtype=np.int64)
        assignment = np.empty(words.size, dtype=np.int64)
        keys = self._keys_of_words(words)
        starts = self._successor_indices(keys).tolist()
        for key_index, ring_index in enumerate(starts):
            for __ in range(ring_size):
                slot = int(self._ring_slots[ring_index])
                if loads[slot] < capacity:
                    break
                ring_index = (ring_index + 1) % ring_size
            loads[slot] += 1
            assignment[key_index] = slot
        return assignment
