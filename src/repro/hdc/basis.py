"""Basis-hypervector sets: random, level and circular (Algorithm 1).

A *basis set* is an ordered collection of hypervectors that encodes one
discrete atomic quantity each (Section 4 of the paper).  The three
flavours differ in the correlation structure they impose:

* **random** -- independent uniform samples; all pairs ~orthogonal.
  Appropriate for categorical data.
* **level** -- a random start, then each successive vector flips ``d/m``
  random bits of its predecessor; similarity decays with index distance
  and the last vector is fully dissimilar (orthogonal) to the first.
  Appropriate for scalar data.
* **circular** -- the paper's novel construction (Algorithm 1, Figure 3):
  a forward phase of ``n/2`` transformations pushes away from the start,
  then a backward phase re-applies the queued transformations (XOR is
  self-inverse) so similarity decays with *circular* distance and there
  is no discontinuity between last and first.

Note on Algorithm 1 as printed: its backward loop performs ``n/2``
dequeues but only ``n/2 - 1`` transformations were enqueued.  We implement
the intended construction -- ``n/2`` forward transformations t_1..t_{n/2}
(producing c_2..c_{n/2+1}) followed by ``n/2 - 1`` backward applications of
t_1..t_{n/2 - 1} (producing c_{n/2+2}..c_n) -- for which binding the final
vector with the one remaining queued transformation t_{n/2} provably
returns c_1 (the XOR-closure property; see
``tests/hdc/test_basis.py::test_circular_closure``).

The footnote to Algorithm 1 defines odd cardinalities: generate ``2n``
circular-hypervectors and keep every other one.

Storage: a :class:`BasisSet` keeps only packed rows (the
:func:`~repro.hdc.packing.pack_bits` layout, pad bits zero), the form
routing, the item memory and the fault injector read; ``vectors`` is
unpacked from them on demand.  The level and circular builders never
hold the byte-per-bit form: they set each transformation's flipped
positions in a packed row and run the walks as prefix XORs over those
rows, drawing from the generator exactly as the per-step construction
does, so the rows and the generator's final state are bit-identical to
it (``tests/hdc/test_packed_basis.py`` keeps that construction as the
reference).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .operations import random_hypervector, random_hypervectors
from .packing import pack_bits, row_bytes, unpack_bits
from .similarity import packed_similarities

__all__ = [
    "BasisSet",
    "random_basis",
    "level_basis",
    "circular_basis",
    "level_hypervectors",
    "circular_hypervectors",
    "transformation_flip_counts",
]


class BasisSet:
    """An ordered, immutable set of basis hypervectors, stored packed.

    Construct one from unpacked {0,1} vectors, ``BasisSet(kind,
    vectors)``, or from packed rows with :meth:`from_packed`.

    Attributes
    ----------
    kind:
        ``"random"``, ``"level"`` or ``"circular"``.
    vectors:
        Unpacked {0,1} array of shape ``(count, dim)``, unpacked from the
        packed rows on each access; read-only.
    """

    __slots__ = ("_kind", "_packed", "_dim")

    def __init__(self, kind: str, vectors: np.ndarray):
        bits = np.asarray(vectors)
        if bits.ndim != 2:
            raise ValueError("basis vectors must form a 2-D array")
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("basis vector entries must be 0 or 1")
        self._hold(kind, pack_bits(bits), bits.shape[1])

    @classmethod
    def from_packed(cls, kind: str, packed: np.ndarray, dim: int) -> "BasisSet":
        """A basis over a copy of ``packed`` rows of ``dim``-bit vectors.

        ``packed`` has shape ``(count, row_bytes(dim))`` in the
        :func:`~repro.hdc.packing.pack_bits` layout; pad bits past
        ``dim`` are cleared, as unpacking and packing again would.
        """
        rows = np.array(packed, dtype=np.uint8, copy=True)
        if rows.ndim != 2 or rows.shape[1] != row_bytes(dim):
            raise ValueError(
                "packed basis rows must have shape (count, {})".format(row_bytes(dim))
            )
        whole, partial = divmod(dim, 8)
        if partial:
            rows[:, whole] &= (1 << partial) - 1
            whole += 1
        rows[:, whole:] = 0
        return cls._of_rows(kind, rows, dim)

    @classmethod
    def _of_rows(cls, kind: str, rows: np.ndarray, dim: int) -> "BasisSet":
        """Take ownership of packed ``rows`` whose pad bits are zero."""
        basis = cls.__new__(cls)
        basis._hold(kind, rows, dim)
        return basis

    def _hold(self, kind: str, rows: np.ndarray, dim: int) -> None:
        rows.setflags(write=False)
        self._kind = kind
        self._packed = rows
        self._dim = dim

    def __repr__(self) -> str:
        return "BasisSet(kind={!r}, count={}, dim={})".format(
            self._kind, self.count, self._dim
        )

    def __len__(self) -> int:
        return self._packed.shape[0]

    @property
    def kind(self) -> str:
        """``"random"``, ``"level"`` or ``"circular"``."""
        return self._kind

    @property
    def count(self) -> int:
        """Number of hypervectors in the set."""
        return self._packed.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality of each hypervector."""
        return self._dim

    @property
    def vectors(self) -> np.ndarray:
        """Unpacked {0,1} array of shape ``(count, dim)``; read-only."""
        return _read_only(unpack_bits(self._packed, self._dim))

    def __getitem__(self, index: int) -> np.ndarray:
        """Unpacked row ``index`` (read-only)."""
        return _read_only(unpack_bits(self._packed[index], self._dim))

    def packed(self) -> np.ndarray:
        """Packed storage form (count, row_bytes); the basis's own rows,
        read-only."""
        return self._packed

    def similarity_profile(self, reference: int = 0) -> np.ndarray:
        """Cosine similarity of every vector to the ``reference`` vector."""
        return packed_similarities(
            self._packed[reference], self._packed, self._dim
        )[0]

    def similarity_matrix(self, metric: str = "cosine") -> np.ndarray:
        """Full pairwise similarity matrix (Figure 2)."""
        return packed_similarities(self._packed, self._packed, self._dim, metric)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def transformation_flip_counts(steps: int, dim: int, total: Optional[int] = None):
    """Integer flip counts per transformation summing to ``total``.

    Algorithm 1 flips ``d/m`` bits per step.  When ``d/m`` is fractional
    we spread the remainder evenly (Bresenham-style accumulation) so the
    flip-count total over all ``steps`` equals ``total`` (default ``d``)
    exactly, keeping the similarity profile's endpoint calibrated for any
    (n, d) combination.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    if total is None:
        total = dim
    if total < 0:
        raise ValueError("total flip count must be non-negative")
    counts = []
    accumulated = 0
    for step in range(1, steps + 1):
        target = round(step * total / steps)
        counts.append(int(target - accumulated))
        accumulated = target
    return counts


def _set_transformations(
    rows: np.ndarray, dim: int, flips: List[int], rng: np.random.Generator
) -> None:
    """Set transformation ``i``'s flipped bits in packed row ``rows[i]``.

    Draws each step's positions as :func:`~repro.hdc.operations.flipped`
    does (Algorithm 1, lines 4-5): one ``rng.choice`` without
    replacement per nonzero step, in step order.  Bit ``p`` is bit
    ``p & 7`` of byte ``p >> 3``, the layout of
    :func:`~repro.hdc.packing.pack_bits`.
    """
    if min(flips) < 0:
        raise ValueError("flip count must be non-negative")
    if max(flips) > dim:
        raise ValueError("cannot set more bits than the dimension")
    drawn = [rng.choice(dim, size=count, replace=False) for count in flips if count]
    if not drawn:
        return
    positions = np.concatenate(drawn)
    steps = np.repeat(np.arange(len(flips)), flips)
    bits = np.left_shift(1, positions & 7).astype(np.uint8)
    # Distinct positions of one step can share a byte, so OR unbuffered.
    np.bitwise_or.at(rows, (steps, positions >> 3), bits)


def _level_rows(
    count: int, dim: int, rng: np.random.Generator, total_flips: Optional[int]
) -> np.ndarray:
    """Packed level-hypervectors: ``c_i = c_{i-1} ^ t_i``, a prefix XOR."""
    if count <= 0:
        raise ValueError("count must be positive")
    rows = np.zeros((count, row_bytes(dim)), dtype=np.uint8)
    rows[0] = pack_bits(random_hypervector(dim, rng))
    if count > 1:
        flips = transformation_flip_counts(count - 1, dim, total=total_flips)
        _set_transformations(rows[1:], dim, flips, rng)
        np.bitwise_xor.accumulate(rows, axis=0, out=rows)
    return rows


def _circular_rows(
    count: int, dim: int, rng: np.random.Generator, total_flips: Optional[int]
) -> np.ndarray:
    """Packed circular-hypervectors per Algorithm 1 (corrected).

    The forward phase is the prefix XOR ``c_i = c_0 ^ t_1 ^ .. ^ t_i``
    for ``i <= n/2``.  The backward phase re-applies ``t_1 .. t_j`` in
    FIFO order from ``c_{n/2}``, so ``c_{n/2+j} = c_{n/2} ^ c_0 ^ c_j``:
    one XOR of the forward rows with ``c_{n/2} ^ c_0``.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if count == 1:
        return pack_bits(random_hypervectors(1, dim, rng))
    if count % 2:
        doubled = _circular_rows(2 * count, dim, rng, total_flips)
        return np.ascontiguousarray(doubled[::2])
    half = count // 2
    if count == 2:
        # Degenerate circle: two dissimilar vectors.
        flips = [total_flips if total_flips is not None else dim // 2]
    else:
        flips = transformation_flip_counts(half, dim, total=total_flips)
    rows = np.zeros((count, row_bytes(dim)), dtype=np.uint8)
    rows[0] = pack_bits(random_hypervector(dim, rng))
    forward = rows[: half + 1]
    _set_transformations(forward[1:], dim, flips, rng)
    np.bitwise_xor.accumulate(forward, axis=0, out=forward)
    # One transformation, t_{n/2}, stays queued; applying it would close
    # the circle onto c_0 (checked by property tests, not stored).
    np.bitwise_xor(rows[1:half], rows[half] ^ rows[0], out=rows[half + 1 :])
    return rows


def random_basis(count: int, dim: int, rng: np.random.Generator) -> BasisSet:
    """Independent uniform random-hypervectors (categorical data)."""
    return BasisSet._of_rows(
        "random", pack_bits(random_hypervectors(count, dim, rng)), dim
    )


def level_hypervectors(
    count: int,
    dim: int,
    rng: np.random.Generator,
    total_flips: Optional[int] = None,
) -> np.ndarray:
    """Raw level-hypervector array (scalar data; Section 4).

    Starts from a random hypervector and flips ``dim/count`` random bits
    per step (``total_flips`` overrides the total), so similarity decays
    linearly with index distance and the last vector is fully dissimilar
    to the first -- with the deliberate discontinuity the circular
    construction removes.  Unpacked from :func:`level_basis`'s rows.
    """
    return unpack_bits(_level_rows(count, dim, rng, total_flips), dim)


def level_basis(
    count: int,
    dim: int,
    rng: np.random.Generator,
    total_flips: Optional[int] = None,
) -> BasisSet:
    """Level-hypervector :class:`BasisSet`."""
    return BasisSet._of_rows("level", _level_rows(count, dim, rng, total_flips), dim)


def circular_hypervectors(
    count: int,
    dim: int,
    rng: np.random.Generator,
    total_flips: Optional[int] = None,
) -> np.ndarray:
    """Raw circular-hypervector array per Algorithm 1 (corrected).

    ``count`` is the circle size ``n``.  For odd ``n`` the footnote
    construction is used: generate ``2n`` and keep every other vector,
    which preserves the circular correlation at half the resolution.

    ``total_flips`` is the total number of bit flips distributed over the
    forward half-circle (default ``dim``, i.e. ``d/m`` per step with
    ``m = n/2``), so antipodal vectors are maximally dissimilar.
    Unpacked from :func:`circular_basis`'s rows.
    """
    return unpack_bits(_circular_rows(count, dim, rng, total_flips), dim)


def circular_basis(
    count: int,
    dim: int,
    rng: np.random.Generator,
    total_flips: Optional[int] = None,
) -> BasisSet:
    """Circular-hypervector :class:`BasisSet` (the paper's contribution)."""
    return BasisSet._of_rows(
        "circular", _circular_rows(count, dim, rng, total_flips), dim
    )
