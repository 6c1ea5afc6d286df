"""Packed (bit-level) hypervector storage and popcount backends.

Hypervectors are constructed as unpacked ``uint8`` arrays of {0, 1} (one
byte per dimension) because that is convenient for the XOR / majority /
permutation algebra.  They are *stored* packed -- one memory bit per
dimension, rows padded to whole 64-bit words -- because the robustness
experiments flip physical memory bits: with packed storage one injected
bit error corrupts exactly one dimension, which is the premise of the
paper's Figure 5.

Three interchangeable popcount backends compute Hamming distances over
packed rows:

``lut8``
    a 256-entry lookup table over bytes; portable and allocation-light.
``swar64``
    the classic SWAR bit-twiddling popcount over ``uint64`` words.
``bitcount``
    ``numpy.bitwise_count`` where available (NumPy >= 2.0); fastest.

The ablation benchmark E10 compares them; all are exact and
interchangeable.

A codebook whose neighbouring rows differ in few bits (the circle of
Algorithm 1) also has a cheaper all-positions form: :class:`CircleSteps`
keeps only the nonzero words of each consecutive difference, and
:func:`circle_hamming_words` / :func:`nearest_rows_circle` walk the
circle with them instead of sweeping every position's full row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "BACKENDS",
    "default_backend",
    "words_per_row",
    "row_bytes",
    "pack_bits",
    "unpack_bits",
    "popcount_u64",
    "as_words",
    "hamming_packed",
    "hamming_words",
    "hamming_packed_matrix",
    "nearest_rows_words",
    "top_k_rows_words",
    "CircleSteps",
    "circle_steps",
    "circle_hamming_words",
    "nearest_rows_circle",
]

#: Bytes in one packed storage word.
_WORD_BYTES = 8

#: Popcount of every byte value, used by the ``lut8`` backend.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

_SWAR_M1 = np.uint64(0x5555_5555_5555_5555)
_SWAR_M2 = np.uint64(0x3333_3333_3333_3333)
_SWAR_M4 = np.uint64(0x0F0F_0F0F_0F0F_0F0F)
_SWAR_H = np.uint64(0x0101_0101_0101_0101)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

BACKENDS = ("lut8", "swar64") + (("bitcount",) if _HAS_BITWISE_COUNT else ())


def default_backend() -> str:
    """The fastest popcount backend available in this environment."""
    return "bitcount" if _HAS_BITWISE_COUNT else "swar64"


def words_per_row(dim: int) -> int:
    """Number of 64-bit storage words for one ``dim``-bit hypervector."""
    if dim <= 0:
        raise ValueError("hypervector dimension must be positive")
    return -(-dim // 64)


def row_bytes(dim: int) -> int:
    """Number of storage bytes for one ``dim``-bit hypervector row."""
    return words_per_row(dim) * _WORD_BYTES


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack unpacked {0,1} hypervectors into padded byte rows.

    Accepts shape ``(dim,)`` or ``(count, dim)``; returns ``uint8`` arrays
    of shape ``(row_bytes,)`` or ``(count, row_bytes)``.  Pad bits are
    zero, and because XOR of two zero pads is zero they never contribute
    to Hamming distances.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim == 1:
        return pack_bits(bits[None, :])[0]
    if bits.ndim != 2:
        raise ValueError("expected a 1-D or 2-D bit array")
    dim = bits.shape[1]
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], row_bytes(dim)), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded


def unpack_bits(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns {0,1} arrays of width ``dim``."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim == 1:
        return unpack_bits(packed[None, :], dim)[0]
    return np.unpackbits(packed, axis=1, count=dim, bitorder="little")


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """SWAR popcount over a ``uint64`` array, element-wise."""
    x = np.asarray(words, dtype=np.uint64).copy()
    x -= (x >> np.uint64(1)) & _SWAR_M1
    x = (x & _SWAR_M2) + ((x >> np.uint64(2)) & _SWAR_M2)
    x = (x + (x >> np.uint64(4))) & _SWAR_M4
    return (x * _SWAR_H) >> np.uint64(56)


def as_words(packed: np.ndarray) -> np.ndarray:
    """View padded packed rows as ``uint64`` words (zero-copy).

    The returned array aliases ``packed`` (when it is already contiguous
    ``uint8``), so writes through either view are seen by the other --
    this is how mutation-time word views stay coherent with the byte
    rows the fault injector flips.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    if packed.shape[-1] % _WORD_BYTES:
        raise ValueError("packed rows must be padded to 64-bit words")
    return packed.view(np.uint64)


_as_words = as_words


def hamming_packed(a: np.ndarray, b: np.ndarray, backend: str = "auto") -> np.ndarray:
    """Hamming distance between packed rows.

    ``a`` and ``b`` broadcast in every dimension except the last (the
    packed byte dimension), so ``hamming_packed(query, memory_matrix)``
    returns one distance per memory row.
    """
    if backend == "auto":
        backend = default_backend()
    if backend == "lut8":
        xor = np.bitwise_xor(np.asarray(a, np.uint8), np.asarray(b, np.uint8))
        return _POPCOUNT8[xor].sum(axis=-1, dtype=np.int64)
    xor = np.bitwise_xor(_as_words(a), _as_words(b))
    return _popcounts(xor, backend).sum(axis=-1, dtype=np.int64)


def hamming_packed_matrix(
    queries: np.ndarray,
    memory: np.ndarray,
    backend: str = "auto",
    chunk_rows: int = 0,
    chunk_bytes: int = 32 * 1024 * 1024,
) -> np.ndarray:
    """All-pairs Hamming distances between packed row sets.

    Returns an ``(len(queries), len(memory))`` ``int64`` matrix.  The
    computation is chunked over query rows to bound the size of the XOR
    intermediate; ``chunk_rows`` fixes the chunk explicitly, otherwise it
    is derived from the ``chunk_bytes`` budget.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.uint8))
    memory = np.atleast_2d(np.asarray(memory, dtype=np.uint8))
    if queries.shape[1] != memory.shape[1]:
        raise ValueError("query and memory row widths differ")
    if chunk_rows <= 0:
        per_query_bytes = max(1, memory.shape[0] * memory.shape[1])
        chunk_rows = max(1, chunk_bytes // per_query_bytes)
    out = np.empty((queries.shape[0], memory.shape[0]), dtype=np.int64)
    for start in range(0, queries.shape[0], chunk_rows):
        stop = min(start + chunk_rows, queries.shape[0])
        block = queries[start:stop, None, :]
        out[start:stop] = hamming_packed(block, memory[None, :, :], backend)
    return out


def _popcounts(words: np.ndarray, backend: str) -> np.ndarray:
    """Per-word popcount of a ``uint64`` array, same shape (small ints)."""
    if backend == "auto":
        backend = default_backend()
    if backend == "bitcount":
        if not _HAS_BITWISE_COUNT:
            raise ValueError("numpy.bitwise_count is unavailable")
        return np.bitwise_count(words)
    if backend == "swar64":
        return popcount_u64(words)
    if backend == "lut8":
        bytes_view = np.ascontiguousarray(words).view(np.uint8)
        counts = _POPCOUNT8[bytes_view].reshape(words.shape + (_WORD_BYTES,))
        return counts.sum(axis=-1, dtype=np.uint8)
    raise ValueError("unknown popcount backend {!r}".format(backend))


def hamming_words(a: np.ndarray, b: np.ndarray, backend: str = "auto") -> np.ndarray:
    """Hamming distance between ``uint64`` word rows (XOR + popcount).

    The word-native core of the routing hot path: ``a`` and ``b`` are
    pre-viewed ``uint64`` arrays (see :func:`as_words`) broadcasting in
    every dimension except the last, so no per-query byte/word
    conversion happens here -- one XOR sweep, one popcount, one sum.
    """
    xor = np.bitwise_xor(np.asarray(a, np.uint64), np.asarray(b, np.uint64))
    return _popcounts(xor, backend).sum(axis=-1, dtype=np.int64)


def nearest_rows_words(
    query_words: np.ndarray,
    memory_words: np.ndarray,
    backend: str = "auto",
    chunk_bytes: int = 32 * 1024 * 1024,
) -> "tuple":
    """Nearest memory row per query, over pre-packed ``uint64`` words.

    Returns ``(indices, distances)`` ``int64`` arrays of length
    ``len(query_words)``; ties break toward the lowest row index
    (``argmin`` keeps the first minimum).  The only Python-level loop is
    the chunking over query rows that bounds the XOR intermediate to
    ``chunk_bytes`` -- each chunk is a single array-wide
    XOR+popcount+argmin sweep.
    """
    queries = np.atleast_2d(np.asarray(query_words, dtype=np.uint64))
    memory = np.atleast_2d(np.asarray(memory_words, dtype=np.uint64))
    if queries.shape[1] != memory.shape[1]:
        raise ValueError("query and memory row widths differ")
    n_queries = queries.shape[0]
    indices = np.empty(n_queries, dtype=np.int64)
    distances = np.empty(n_queries, dtype=np.int64)
    per_query_bytes = max(1, memory.shape[0] * memory.shape[1] * _WORD_BYTES)
    chunk = max(1, chunk_bytes // per_query_bytes)
    for start in range(0, n_queries, chunk):
        stop = min(start + chunk, n_queries)
        block = hamming_words(
            queries[start:stop, None, :], memory[None, :, :], backend
        )
        best = block.argmin(axis=1)
        indices[start:stop] = best
        distances[start:stop] = block[np.arange(block.shape[0]), best]
    return indices, distances


class CircleSteps(NamedTuple):
    """A codebook's consecutive differences ``δ_p = C[p] ^ C[p+1]``, sparse.

    One entry per nonzero word of each difference, in position order:
    ``words`` holds the entry's word index, ``masks`` the difference
    word and ``bases`` the codebook word under it (``C[p] & δ_p``).
    ``first`` is ``C[0]``; ``ends[p]`` counts the entries of the
    differences before position ``p``, and ``flips[p]`` their bits.
    Built by :func:`circle_steps`.
    """

    first: np.ndarray
    words: np.ndarray
    masks: np.ndarray
    bases: np.ndarray
    ends: np.ndarray
    flips: np.ndarray

    @property
    def size(self) -> int:
        """Nonzero difference words (the walk's per-row work)."""
        return int(self.masks.size)

    @property
    def count(self) -> int:
        """Codebook positions ``n``."""
        return int(self.ends.size)


def circle_steps(codebook_words: np.ndarray, backend: str = "auto") -> CircleSteps:
    """The :class:`CircleSteps` of ``(n, row_words)`` codebook words.

    Derived from the words as given, so a corrupted codebook yields the
    differences of the corrupted rows.
    """
    codebook = np.atleast_2d(np.asarray(codebook_words, dtype=np.uint64))
    differences = codebook[1:] ^ codebook[:-1]
    positions, words = np.nonzero(differences)
    masks = differences[positions, words]
    flips = np.zeros(masks.size + 1, dtype=np.int64)
    np.cumsum(_popcounts(masks, backend), dtype=np.int64, out=flips[1:])
    ends = np.searchsorted(positions, np.arange(codebook.shape[0]), side="left")
    return CircleSteps(
        first=codebook[0].copy(),
        words=words,
        masks=masks,
        bases=codebook[positions, words] & masks,
        ends=ends,
        flips=flips[ends],
    )


def circle_hamming_words(
    steps: CircleSteps, rows: np.ndarray, backend: str = "auto"
) -> np.ndarray:
    """Hamming distance of each of ``rows`` to every codebook position.

    Returns ``(len(rows), n)`` ``int64``, equal to :func:`hamming_words`
    of every row against every codebook row.  Walks the circle: with
    ``x = C[p] ^ r``, ``popcount(x ^ δ_p) = popcount(x) + |δ_p| -
    2 popcount(x & δ_p)``, and ``x & δ_p`` is nonzero only at the
    difference's nonzero words, so each row costs one full row at
    position 0 plus ``steps.size`` words, not ``n`` full rows.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint64))
    # (C[p] ^ r) & δ_p at every entry, as (r & δ_p) ^ (C[p] & δ_p).
    agree = rows[:, steps.words]
    np.bitwise_and(agree, steps.masks, out=agree)
    np.bitwise_xor(agree, steps.bases, out=agree)
    prefix = np.zeros((rows.shape[0], steps.size + 1), dtype=np.int64)
    np.cumsum(_popcounts(agree, backend), axis=1, dtype=np.int64, out=prefix[:, 1:])
    distances = prefix[:, steps.ends]
    distances *= -2
    distances += steps.flips
    distances += hamming_words(rows, steps.first, backend)[:, None]
    return distances


def nearest_rows_circle(
    steps: CircleSteps,
    memory_words: np.ndarray,
    backend: str = "auto",
    chunk_bytes: int = 32 * 1024 * 1024,
) -> "tuple":
    """Nearest memory row for every codebook position, by the circle walk.

    Returns ``(indices, distances)`` ``int64`` arrays of length ``n``,
    identical to :func:`nearest_rows_words` over all ``n`` codebook
    rows (ties toward the lowest row index).  Memory rows are walked in
    chunks whose gathered words, popcount temporaries (the ``swar64``
    backend's are the largest), prefix sums and distances stay within
    ``chunk_bytes``.
    """
    memory = np.atleast_2d(np.asarray(memory_words, dtype=np.uint64))
    n = steps.count
    columns = np.arange(n)
    per_row_bytes = _WORD_BYTES * (6 * steps.size + 2 * n)
    chunk = max(1, chunk_bytes // per_row_bytes)
    indices = np.zeros(n, dtype=np.int64)
    distances = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    for start in range(0, memory.shape[0], chunk):
        block = circle_hamming_words(steps, memory[start : start + chunk], backend)
        best = block.argmin(axis=0)
        found = block[best, columns]
        # Strict: a tie stays with the earlier chunk's (lower) row.
        wins = found < distances
        indices[wins] = best[wins] + start
        distances[wins] = found[wins]
    return indices, distances


def top_k_rows_words(
    query_words: np.ndarray,
    memory_words: np.ndarray,
    k: int,
    backend: str = "auto",
    chunk_bytes: int = 32 * 1024 * 1024,
) -> "tuple":
    """The ``k`` nearest memory rows per query, over ``uint64`` words.

    The replica-routing generalisation of :func:`nearest_rows_words`:
    returns ``(indices, distances)`` ``int64`` arrays of shape
    ``(len(query_words), k)``, each row ordered by increasing distance
    with ties broken toward the lowest row index -- so column 0 is
    bit-identical to :func:`nearest_rows_words` (``argmin`` keeps the
    first minimum).  Tie-breaking is exact, not stochastic: distances
    are folded into a collision-free composite key ``distance *
    n_rows + row`` before the ``argpartition``/sort, so partition
    boundaries can never split a tie nondeterministically.  As in the
    top-1 kernel, the only Python-level loop is the chunking that
    bounds the XOR intermediate.
    """
    queries = np.atleast_2d(np.asarray(query_words, dtype=np.uint64))
    memory = np.atleast_2d(np.asarray(memory_words, dtype=np.uint64))
    if queries.shape[1] != memory.shape[1]:
        raise ValueError("query and memory row widths differ")
    n_rows = memory.shape[0]
    if not 1 <= k <= n_rows:
        raise ValueError(
            "k must be in [1, {}] memory rows, got {}".format(n_rows, k)
        )
    n_queries = queries.shape[0]
    indices = np.empty((n_queries, k), dtype=np.int64)
    distances = np.empty((n_queries, k), dtype=np.int64)
    row_ids = np.arange(n_rows, dtype=np.int64)
    per_query_bytes = max(1, n_rows * memory.shape[1] * _WORD_BYTES)
    chunk = max(1, chunk_bytes // per_query_bytes)
    for start in range(0, n_queries, chunk):
        stop = min(start + chunk, n_queries)
        block = hamming_words(
            queries[start:stop, None, :], memory[None, :, :], backend
        )
        # Composite key: total order per row, deterministic tie-break
        # toward the lowest memory-row index.
        composite = block * np.int64(n_rows) + row_ids
        if k < n_rows:
            part = np.argpartition(composite, k - 1, axis=1)[:, :k]
        else:
            part = np.broadcast_to(row_ids, composite.shape)
        order = np.argsort(
            np.take_along_axis(composite, part, axis=1), axis=1
        )
        top = np.take_along_axis(part, order, axis=1)
        indices[start:stop] = top
        distances[start:stop] = np.take_along_axis(block, top, axis=1)
    return indices, distances
