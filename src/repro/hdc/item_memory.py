"""Associative item memory: the "inference" step of HD hashing (Eq. 2).

The item memory stores one packed hypervector per server.  A query
returns the row with the smallest Hamming distance (equivalently, the
largest inverse-Hamming or cosine similarity) to the query hypervector --
the operation Schmuck et al. show is a single clock-cycle on an HDC
accelerator with combinational associative memory.

Storage notes:

* Rows are packed (one memory bit per dimension, padded to 64-bit words),
  so the fault injector corrupts exactly one dimension per flipped bit.
* Rows are kept contiguous and in insertion order; distance ties are
  broken toward the earliest-inserted row, deterministically.
* The backing buffer grows by doubling; :meth:`memory_view` always
  exposes the *live* occupied rows so injected faults are visible to
  every subsequent query (silent corruption, as in a real deployment).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

import numpy as np

from .packing import (
    as_words,
    default_backend,
    hamming_packed,
    nearest_rows_words,
    pack_bits,
    row_bytes,
    top_k_rows_words,
)

__all__ = ["ItemMemory"]

_INITIAL_CAPACITY = 8


class ItemMemory:
    """A dynamic associative memory over packed binary hypervectors."""

    def __init__(self, dim: int, backend: str = "auto"):
        if dim <= 0:
            raise ValueError("hypervector dimension must be positive")
        self._dim = dim
        self._row_bytes = row_bytes(dim)
        self._backend = default_backend() if backend == "auto" else backend
        self._labels: List[Hashable] = []
        self._buffer = np.zeros((_INITIAL_CAPACITY, self._row_bytes), dtype=np.uint8)
        # uint64 alias of the same storage, refreshed only when the
        # buffer is reallocated (growth) -- the query hot path reads
        # words directly, with no per-query view conversion.  Writes
        # through ``memory_view`` (fault injection) land in the same
        # bytes, so both views always agree.
        self._buffer_words = as_words(self._buffer)

    # -- introspection ----------------------------------------------------

    @property
    def dim(self) -> int:
        """Logical hypervector dimensionality (bits per row)."""
        return self._dim

    @property
    def backend(self) -> str:
        """Popcount backend used for distance computations."""
        return self._backend

    @property
    def labels(self) -> Tuple[Hashable, ...]:
        """Stored labels, in insertion order."""
        return tuple(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._labels

    def memory_view(self) -> np.ndarray:
        """Writable view of the live occupied rows (count, row_bytes).

        This is the array registered as a fault-injection region: flips
        through the view are seen by every subsequent query.
        """
        return self._buffer[: len(self._labels)]

    def memory_words(self) -> np.ndarray:
        """The live occupied rows as ``uint64`` words (count, row_words).

        Aliases the same storage as :meth:`memory_view`; maintained at
        mutation time so queries never re-view or re-pack per call.
        """
        return self._buffer_words[: len(self._labels)]

    def index_of(self, label: Hashable) -> int:
        """Insertion-order index of ``label`` (raises ``KeyError``)."""
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(label) from None

    # -- mutation ---------------------------------------------------------

    def add(self, label: Hashable, bits: np.ndarray) -> None:
        """Store an unpacked {0,1} hypervector under ``label``."""
        self.add_packed(label, pack_bits(np.asarray(bits, dtype=np.uint8)))

    def add_packed(self, label: Hashable, packed_row: np.ndarray) -> None:
        """Store an already-packed hypervector row under ``label``."""
        packed_row = np.asarray(packed_row, dtype=np.uint8)
        if packed_row.shape != (self._row_bytes,):
            raise ValueError(
                "packed row must have shape ({},)".format(self._row_bytes)
            )
        if label in self._labels:
            raise ValueError("label {!r} is already stored".format(label))
        count = len(self._labels)
        if count == self._buffer.shape[0]:
            grown = np.zeros((2 * count, self._row_bytes), dtype=np.uint8)
            grown[:count] = self._buffer
            self._buffer = grown
            self._buffer_words = as_words(self._buffer)
        self._buffer[count] = packed_row
        self._labels.append(label)

    def remove(self, label: Hashable) -> None:
        """Remove ``label``, compacting rows and preserving order."""
        index = self.index_of(label)
        count = len(self._labels)
        self._buffer[index : count - 1] = self._buffer[index + 1 : count]
        self._buffer[count - 1] = 0
        del self._labels[index]

    # -- queries (HDC inference) -------------------------------------------

    def distances(self, packed_query: np.ndarray) -> np.ndarray:
        """Hamming distance from ``packed_query`` to every stored row."""
        if not self._labels:
            raise LookupError("item memory is empty")
        return hamming_packed(packed_query, self.memory_view(), self._backend)

    def query_packed(self, packed_query: np.ndarray) -> Tuple[int, Hashable, int]:
        """Nearest-row query: returns (index, label, hamming_distance).

        Ties break toward the earliest-inserted row (``argmin`` returns
        the first minimum and rows are kept in insertion order).
        """
        distances = self.distances(packed_query)
        index = int(np.argmin(distances))
        return index, self._labels[index], int(distances[index])

    def query(self, bits: np.ndarray) -> Tuple[int, Hashable, int]:
        """Nearest-row query with an unpacked {0,1} hypervector."""
        return self.query_packed(pack_bits(np.asarray(bits, dtype=np.uint8)))

    def query_batch_words(
        self, query_words: np.ndarray, chunk_bytes: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched nearest-row query over ``uint64`` word rows.

        The routing hot path: one contiguous XOR+popcount+argmin sweep
        against the mutation-time word view of the memory (chunked only
        to bound the XOR intermediate).  Returns ``(indices,
        distances)`` ``int64`` arrays aligned with ``query_words``.
        """
        if not self._labels:
            raise LookupError("item memory is empty")
        kwargs = {} if chunk_bytes is None else {"chunk_bytes": chunk_bytes}
        return nearest_rows_words(
            np.atleast_2d(np.asarray(query_words, dtype=np.uint64)),
            self.memory_words(),
            self._backend,
            **kwargs
        )

    def query_top_k_words(
        self, query_words: np.ndarray, k: int, chunk_bytes: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``k``-nearest-row query over ``uint64`` word rows.

        The replica-routing hot path: one packed-word XOR+popcount
        sweep with a vectorized top-k selection (see
        :func:`~repro.hdc.packing.top_k_rows_words`).  Returns
        ``(indices, distances)`` ``int64`` arrays of shape
        ``(len(query_words), k)``; column 0 matches
        :meth:`query_batch_words` bit-exactly.
        """
        if not self._labels:
            raise LookupError("item memory is empty")
        kwargs = {} if chunk_bytes is None else {"chunk_bytes": chunk_bytes}
        return top_k_rows_words(
            np.atleast_2d(np.asarray(query_words, dtype=np.uint64)),
            self.memory_words(),
            k,
            self._backend,
            **kwargs
        )

    def query_batch(
        self, packed_queries: np.ndarray, chunk_rows: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched nearest-row query over packed byte rows.

        ``packed_queries`` has shape (q, row_bytes); returns
        ``(indices, distances)`` arrays of length q.  Views the queries
        as words once and dispatches to :meth:`query_batch_words` (the
        batched inference path that stands in for the paper's GPU
        execution).  ``chunk_rows`` bounds the per-sweep query count.
        """
        queries = as_words(np.atleast_2d(packed_queries))
        chunk_bytes = None
        if chunk_rows is not None and len(self._labels):
            per_query = len(self._labels) * self._row_bytes
            chunk_bytes = max(1, int(chunk_rows)) * per_query
        return self.query_batch_words(queries, chunk_bytes=chunk_bytes)
