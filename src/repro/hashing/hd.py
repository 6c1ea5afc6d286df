"""Hyperdimensional (HD) hashing: the paper's contribution (Section 3).

The table holds a codebook ``C`` of ``n`` circular-hypervectors
(Algorithm 1).  A joining server is encoded as ``Enc(s) = C[h(s) mod n]``
and its hypervector is stored in an associative item memory; a request is
encoded the same way and routed to the server with the most similar
stored hypervector (Eq. 2) -- the nearest node on the hyperdimensional
circle, in either direction.

Why this is robust (Figure 5): the routing state is ``k`` hypervectors of
``d`` bits (d = 10,000 by default).  A flipped memory bit moves one
similarity score by exactly 1 out of d, while distinct circle nodes are
separated by ~2d/n bits per step; a handful of upsets can never cross the
inter-node gap, so corrupted lookups still return the pristine winner.
Contrast with consistent hashing, where the same flip displaces a ring
position by up to half the key space.

Inference (:meth:`HDHashTable.infer_batch`) deduplicates the request
batch onto its unique circle positions before querying the item memory --
the contiguous XOR+popcount sweep that stands in for the paper's GPU (and,
ultimately, for the single-cycle associative memory of Schmuck et al.).
Its answer depends only on a request's circle position, so the table
keeps that answer for each of the ``n`` positions (the *position memo*:
winning item-memory row and its Hamming distance) and routing reads it
with one gather.  Every known memo entry equals a fresh
``infer_batch`` over the live item memory (and the live codebook, when
it is exposed): a join applies the joiner's distance column with strict
wins only, a leave marks only the leaver's positions to be inferred
again on first use, a restore starts over, and every routing call first
compares the live memory with the memo's copy and re-derives each
position a changed row or codebook entry can affect, so silent
corruption reaches the answers exactly as it reaches inference.

Placement details the paper leaves open (documented choices):

* ``h(x) mod n`` collides for distinct servers once ``k ~ sqrt(n)``
  (birthday effect).  Identical encodings would make the two servers
  indistinguishable, so joins probe linearly to the next free circle node
  (deterministic, at most a 1-node placement shift).  Joining more than
  ``n`` servers raises :class:`~repro.errors.CapacityError`.
* Similarity ties break toward the earliest-joined server, matching the
  item memory's first-minimum rule, so replicas built by replaying the
  same join order agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CapacityError, StateError
from ..hashfn import HashFamily, Key
from ..hdc.basis import BasisSet, circular_basis
from ..hdc.item_memory import ItemMemory
from ..hdc.packing import (
    CircleSteps,
    as_words,
    circle_hamming_words,
    circle_steps,
    hamming_words,
    nearest_rows_circle,
)
from ..memory import MemoryRegion
from .base import DynamicHashTable
from .registry import register_table

__all__ = ["HDHashTable", "HDConfig"]

#: Paper defaults: 10,000-bit hypervectors (Section 2.3).
DEFAULT_DIM = 10_000
#: Codebook size; the paper requires n > k and leaves n unreported.
DEFAULT_CODEBOOK_SIZE = 4_096

#: Swept words one walked difference word costs: the walk gathers,
#: popcounts and prefix-sums each word where the sweep XORs and
#: popcounts contiguous rows.  Measured break-even of numpy's kernels.
_WALK_WORD_COST = 4


@dataclass(frozen=True)
class HDConfig:
    """Constructor config for :class:`HDHashTable`.

    ``codebook`` accepts a pre-built :class:`~repro.hdc.basis.BasisSet`
    (shared across sweeps by the experiment harness); it is not part of
    serialized snapshots, which carry the codebook in their payload.
    """

    seed: int = 0
    dim: int = DEFAULT_DIM
    codebook_size: int = DEFAULT_CODEBOOK_SIZE
    codebook: Optional[BasisSet] = None
    backend: str = "auto"
    expose_codebook: bool = False
    batch_size: int = 256
    require_circular: bool = True


@register_table(
    "hd",
    config=HDConfig,
    description="the paper's HDC inference over circular-hypervectors",
    paper=True,
)
class HDHashTable(DynamicHashTable):
    """Dynamic hash table routed by hyperdimensional inference."""

    name = "hd"

    def __init__(
        self,
        family: HashFamily = None,
        seed: int = 0,
        dim: int = DEFAULT_DIM,
        codebook_size: int = DEFAULT_CODEBOOK_SIZE,
        codebook: Optional[BasisSet] = None,
        backend: str = "auto",
        expose_codebook: bool = False,
        batch_size: int = 256,
        require_circular: bool = True,
    ):
        super().__init__(family=family, seed=seed)
        self._codebook_derived = codebook is None
        if codebook is not None:
            if require_circular and codebook.kind != "circular":
                # Level codebooks re-introduce the wrap-around similarity
                # discontinuity of Section 4; ablation E11 passes
                # require_circular=False to demonstrate exactly that.
                raise ValueError("HD hashing requires a circular codebook")
            self._codebook = codebook
        else:
            rng = np.random.default_rng(self.family.derive("codebook").seed)
            self._codebook = circular_basis(codebook_size, dim, rng)
        self._expose_codebook = expose_codebook
        self._install_codebook(self._codebook.packed())
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self._batch_size = batch_size
        self._memory = ItemMemory(self._codebook.dim, backend=backend)
        self._position_of: Dict[Key, int] = {}
        self._occupied: Dict[int, Key] = {}
        self._reset_memo()

    def _install_codebook(self, packed: np.ndarray) -> None:
        """Route from ``packed`` codebook rows.

        Lookups read these rows.  An exposed codebook is a corruptible
        region, so the table takes its own writable copy; otherwise it
        reads the rows as given (the basis's own read-only array, never
        written, so tables can share one).  The uint64 word alias of
        the same storage is what the routing kernels consume; it is
        refreshed only here and on restore, never per query.
        """
        if self._expose_codebook:
            packed = packed.copy()
        self._codebook_packed = packed
        self._codebook_words = as_words(packed)

    # -- introspection ----------------------------------------------------

    @property
    def dim(self) -> int:
        """Hypervector dimensionality ``d``."""
        return self._codebook.dim

    @property
    def codebook_size(self) -> int:
        """Circle size ``n = |C|``."""
        return self._codebook.count

    @property
    def codebook(self) -> BasisSet:
        """The circular-hypervector codebook ``C``."""
        return self._codebook

    @property
    def item_memory(self) -> ItemMemory:
        """The associative memory holding one row per server."""
        return self._memory

    @property
    def batch_size(self) -> int:
        """Configured inference batch size (the paper uses 256 on its GPU).

        Kept as declarative config; the batch kernel now sizes its own
        sweeps by memory budget rather than fixed query counts.
        """
        return self._batch_size

    def position_of(self, server_id: Key) -> int:
        """Circle node a server was placed on (after probing)."""
        return self._position_of[server_id]

    # -- membership ---------------------------------------------------------

    def _place(self, word: int) -> int:
        n = self.codebook_size
        if len(self._occupied) >= n:
            raise CapacityError(
                "circle is full: {} servers on {} nodes".format(
                    len(self._occupied), n
                )
            )
        position = int(word % n)
        while position in self._occupied:
            position = (position + 1) % n
        return position

    def _join(self, server_id: Key, server_word: int) -> None:
        position = self._place(server_word)
        if self._memo_slots is not None:
            self._memo()  # settle earlier faults before the row lands
        self._memory.add_packed(server_id, self._codebook_packed[position])
        self._position_of[server_id] = position
        self._occupied[position] = server_id
        if self._memo_slots is not None:
            # Ties break toward the earliest row and the joiner is the
            # latest, so it takes exactly the positions it wins strictly
            # (an unknown entry's -1 is never beaten).
            row = len(self._memory) - 1
            column = self._column(row)
            wins = column < self._memo_distances
            self._memo_slots[wins] = row
            self._memo_distances[wins] = column[wins]
            self._snapshot_memo()

    def _leave(self, server_id: Key, slot: int) -> None:
        if self._memo_slots is not None:
            self._memo()
        self._memory.remove(server_id)
        position = self._position_of.pop(server_id)
        del self._occupied[position]
        if self._memo_slots is not None:
            # Removing a row that won nowhere changes no argmin; later
            # rows shift down by one, and the leaver's own positions are
            # re-queried on first use.
            slots = self._memo_slots
            orphaned = slots == slot
            slots[orphaned] = -1
            self._memo_distances[orphaned] = -1
            np.subtract(slots, 1, out=slots, where=slots > slot)
            self._snapshot_memo()

    # -- Eq. 2 inference ----------------------------------------------------

    def infer_batch(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 2 inference: each word's nearest item-memory row.

        Returns ``(slots, distances)`` ``int64`` arrays aligned with
        ``words``: the winning row (ties toward the earliest-joined
        server) and its Hamming distance.  Requests sharing a circle
        position share a similarity query, so a batch of b requests
        costs one XOR+popcount sweep over its ``min(b, n)`` unique
        positions against every stored row.  This is the paper's
        algorithm as Figure 4 times it; :meth:`route_batch` returns the
        same slots from the position memo.
        """
        self._require_servers()
        positions = self._route_positions(np.asarray(words, dtype=np.uint64))
        unique_positions, inverse = np.unique(positions, return_inverse=True)
        slots, distances = self._memory.query_batch_words(
            self._codebook_words[unique_positions]
        )
        return slots[inverse], distances[inverse]

    # -- position memo --------------------------------------------------------
    #
    # One entry per circle position: the winning item-memory row and its
    # Hamming distance, or -1 in both while unknown (never used, or the
    # winner left).  Unknown entries are inferred on first use; known
    # entries always equal what inference over the live memory answers.
    #
    # Inferring many positions at once, and a row's distance column, can
    # take the circle walk (:func:`~repro.hdc.packing.nearest_rows_circle`)
    # instead of the sweep: it reads the codebook's consecutive
    # differences, kept as :class:`~repro.hdc.packing.CircleSteps` and
    # derived from the live codebook.  :meth:`_circle` picks the cheaper.

    def _reset_memo(self) -> None:
        """Forget every entry (each is inferred again on first use)."""
        self._memo_slots = None
        self._memo_distances = None
        self._memo_rows = b""
        self._memo_codebook = b""
        self._circle_steps = None

    def _snapshot_memo(self) -> None:
        """Record the memory (and exposed codebook) the memo reflects."""
        self._memo_rows = self._memory.memory_view().tobytes()
        if self._expose_codebook:
            self._memo_codebook = self._codebook_packed.tobytes()

    def _memo(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(slots, distances)`` per circle position, with every known
        entry current with the live item memory and exposed codebook.

        Runs before every answer: one compare of the live memory with
        the memo's copy, and, when they differ, a repair of every
        position a changed row or codebook entry can affect.
        """
        if self._memo_slots is None:
            self._memo_slots = np.full(self.codebook_size, -1, dtype=np.int64)
            self._memo_distances = np.full(self.codebook_size, -1, dtype=np.int64)
            self._snapshot_memo()
        elif self._memory.memory_view().tobytes() != self._memo_rows or (
            self._expose_codebook
            and self._codebook_packed.tobytes() != self._memo_codebook
        ):
            self._repair_memo()
        return self._memo_slots, self._memo_distances

    def _repair_memo(self) -> None:
        """Re-derive every position the changed memory can affect.

        A changed item-memory row can lose the positions it won and win
        any position where its new distance reaches the winner's; a
        changed codebook entry changes its own position's query (and
        the codebook differences the circle walk reads).  Those
        positions are inferred again over the live memory; every other
        known position keeps a winner whose row and distance are
        unchanged.
        """
        affected = np.zeros(self.codebook_size, dtype=bool)
        if self._expose_codebook:
            before = np.frombuffer(self._memo_codebook, dtype=np.uint64)
            affected |= (
                self._codebook_words != before.reshape(self._codebook_words.shape)
            ).any(axis=1)
            if affected.any():
                self._circle_steps = None
        live = self._memory.memory_words()
        if not len(live):
            self._snapshot_memo()  # no row, so no entry is known
            return
        if len(self._memo_rows) == live.nbytes:
            seen = np.frombuffer(self._memo_rows, dtype=np.uint64)
            changed = np.flatnonzero((live != seen.reshape(live.shape)).any(axis=1))
        else:
            changed = np.arange(len(live))  # rows added or removed behind the table
        if 2 * changed.size > len(live):
            affected[:] = True  # one pass over every position is cheaper
        else:
            for row in changed:
                affected |= self._memo_slots == row
                affected |= self._column(row) <= self._memo_distances
        self._infer_into_memo(np.flatnonzero(affected))
        self._snapshot_memo()

    def _circle(self, positions: int) -> Optional[CircleSteps]:
        """The codebook differences, when walking the circle costs less
        than sweeping ``positions`` positions, else ``None``.

        Per item-memory row the sweep reads ``positions`` full rows and
        the walk the nonzero difference words plus one entry per
        position.  Valid while the memo is settled (:meth:`_memo`).
        """
        sweep_words = positions * self._codebook_words.shape[1]
        if sweep_words <= _WALK_WORD_COST * self.codebook_size:
            return None  # the walk touches every position at least once
        if self._circle_steps is None:
            self._circle_steps = circle_steps(
                self._codebook_words, self._memory.backend
            )
        walk_words = self._circle_steps.size + self.codebook_size
        if _WALK_WORD_COST * walk_words < sweep_words:
            return self._circle_steps
        return None

    def _column(self, row: int) -> np.ndarray:
        """Hamming distance of item-memory ``row`` to every position."""
        words = self._memory.memory_words()[row]
        steps = self._circle(self.codebook_size)
        if steps is None:
            return hamming_words(self._codebook_words, words, self._memory.backend)
        return circle_hamming_words(steps, words, self._memory.backend)[0]

    def _infer_into_memo(self, positions: np.ndarray) -> None:
        """Set the entries of (unique) ``positions`` by inference."""
        if not positions.size:
            return
        steps = self._circle(positions.size)
        if steps is None:
            slots, distances = self.infer_batch(positions.astype(np.uint64))
        else:
            slots, distances = nearest_rows_circle(
                steps, self._memory.memory_words(), self._memory.backend
            )
            slots, distances = slots[positions], distances[positions]
        self._memo_slots[positions] = slots
        self._memo_distances[positions] = distances

    def _memo_at(self, positions: np.ndarray, distances: bool = False) -> np.ndarray:
        """Memo slots (or distances) at ``positions``, unknown ones
        inferred first."""
        memo = self._memo()[1 if distances else 0]
        found = memo[positions]
        if found.size and found.min() < 0:
            self._infer_into_memo(np.unique(positions[found < 0]))
            found = memo[positions]
        return found

    # -- routing --------------------------------------------------------------

    def _route_positions(self, words: np.ndarray) -> np.ndarray:
        return (words % np.uint64(self.codebook_size)).astype(np.int64)

    def _position_owners(self) -> np.ndarray:
        return self._memo_at(np.arange(self.codebook_size))

    def route_word(self, word: int) -> int:
        self._require_servers()
        position = np.array([int(word) % self.codebook_size])
        return int(self._memo_at(position)[0])

    def _route_batch(self, words: np.ndarray) -> np.ndarray:
        """One gather from the position memo (see :meth:`infer_batch`)."""
        return self._memo_at(self._route_positions(words))

    # -- delta kernels ------------------------------------------------------

    def _delta_scores(self, words: np.ndarray) -> Optional[np.ndarray]:
        # Similarity (Eq. 2) is monotone in negated Hamming distance, so
        # the winning score of a word is minus its winner's distance.
        # Ties break toward the earliest item-memory row, and a joiner
        # is always the *latest* row, so the strict-win rule of the
        # delta contract reproduces the first-minimum argmin exactly.
        if not self._server_ids:
            return None
        return -self._memo_at(self._route_positions(words), distances=True)

    def _delta_challenge(
        self, server_id: Key, words: np.ndarray
    ) -> Optional[np.ndarray]:
        try:
            row = self._memory.index_of(server_id)
        except KeyError:
            return None
        self._memo()  # settles the codebook differences the column reads
        return -self._column(row)[self._route_positions(words)]

    def _route_word_replicas(self, word: int, k: int) -> np.ndarray:
        """Native replica path: the ``k`` nearest item-memory rows.

        HD inference ranks the whole pool for free -- the similarity
        scores of Eq. 2 are computed against every stored hypervector
        anyway -- so the replica set is the top-k of the same sweep the
        single-server lookup argmins over.  Goes through the same
        packed-word kernel as the batch path, so scalar and batch agree
        bit-exactly (including tie-breaks toward the earliest-joined
        server).
        """
        position = int(word % self.codebook_size)
        indices, __ = self._memory.query_top_k_words(
            self._codebook_words[position][None, :], k
        )
        return indices[0]

    def _route_replicas_batch(self, words: np.ndarray, k: int) -> np.ndarray:
        """Batched replica inference, deduplicated onto circle positions.

        One packed-word top-k kernel sweep over the batch's unique
        circle positions -- no per-key Python loop, mirroring
        :meth:`infer_batch`.
        """
        positions = self._route_positions(words)
        unique_positions, inverse = np.unique(positions, return_inverse=True)
        slots, __ = self._memory.query_top_k_words(
            self._codebook_words[unique_positions], k
        )
        return slots[inverse]

    # -- snapshot / restore -------------------------------------------------

    def _config_state(self) -> Dict[str, Any]:
        return {
            "seed": self._family.seed,
            "dim": self.dim,
            "codebook_size": self.codebook_size,
            "backend": self._memory.backend,
            "batch_size": self._batch_size,
            "expose_codebook": self._expose_codebook,
        }

    def _state_payload(self) -> Dict[str, Any]:
        """The replica-defining state of Section 3: codebook + item memory.

        A seed-derived codebook is recorded by reference (the family seed
        in the config regenerates it bit-identically); an externally
        supplied codebook is embedded packed.  The live packed codebook
        copy is embedded only when it has diverged from the pristine
        basis (i.e. fault injection with ``expose_codebook`` hit it), and
        the item-memory rows are always captured live -- so a restored
        replica reproduces even a corrupted table bit-for-bit.
        """
        pristine = self._codebook.packed()
        if self._codebook_derived:
            codebook: Dict[str, Any] = {"mode": "derived"}
        else:
            codebook = {
                "mode": "explicit",
                "kind": self._codebook.kind,
                "packed": np.array(pristine, copy=True),
            }
        return {
            "codebook": codebook,
            "codebook_packed": (
                None
                if np.array_equal(self._codebook_packed, pristine)
                else self._codebook_packed.copy()
            ),
            "positions": [
                (server_id, int(self._position_of[server_id]))
                for server_id in self._server_ids
            ],
            "memory_rows": self._memory.memory_view().copy(),
        }

    @classmethod
    def _build_for_restore(cls, state: Dict[str, Any]) -> "HDHashTable":
        # Hand an explicit payload codebook straight to the constructor,
        # so it does not derive a throwaway basis from the family seed.
        from .registry import make_table

        config = dict(state.get("config", {}))
        codebook = state["payload"]["codebook"]
        if codebook["mode"] == "explicit":
            config["codebook"] = BasisSet.from_packed(
                codebook["kind"],
                codebook["packed"],
                config.get("dim", DEFAULT_DIM),
            )
            config["require_circular"] = False
        return make_table(state["algorithm"], **config)

    def _load_payload(self, payload: Dict[str, Any], server_ids: List[Key]) -> None:
        codebook = payload["codebook"]
        if codebook["mode"] == "explicit" and self._codebook_derived:
            # Fallback for restores that did not come through
            # _build_for_restore (the constructor-supplied codebook path
            # above already installed it).
            self._codebook = BasisSet.from_packed(
                codebook["kind"], codebook["packed"], self.dim
            )
            self._install_codebook(self._codebook.packed())
        if codebook["mode"] == "explicit":
            self._codebook_derived = False
        # (derived mode: the constructor already rebuilt the identical
        # codebook from the family seed)
        if payload.get("codebook_packed") is not None:
            self._codebook_packed = np.array(
                payload["codebook_packed"], dtype=np.uint8, copy=True
            )
            self._codebook_words = as_words(self._codebook_packed)
        self._memory = ItemMemory(self.dim, backend=self._memory.backend)
        rows = np.asarray(payload["memory_rows"], dtype=np.uint8)
        if rows.shape[0] != len(server_ids):
            raise StateError(
                "snapshot has {} item-memory rows for {} servers".format(
                    rows.shape[0], len(server_ids)
                )
            )
        for label, row in zip(server_ids, rows):
            self._memory.add_packed(label, row)
        self._position_of = {
            server_id: int(position)
            for server_id, position in payload["positions"]
        }
        self._occupied = {
            position: server_id
            for server_id, position in self._position_of.items()
        }
        self._reset_memo()

    # -- fault-injection surface ------------------------------------------------

    def memory_regions(self) -> List[MemoryRegion]:
        regions = [
            MemoryRegion(
                "item_memory", self._memory.memory_view(), self.dim
            )
        ]
        if self._expose_codebook:
            regions.append(
                MemoryRegion("codebook", self._codebook_packed, self.dim)
            )
        return regions
