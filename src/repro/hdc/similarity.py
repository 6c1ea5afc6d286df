"""Similarity metrics between hypervectors.

The paper's Eq. 2 uses "a given similarity metric delta, such as inverse
Hamming distance or the cosine similarity".  For dense binary
hypervectors the two orders are identical: with the bipolar view
``x -> 1 - 2x`` the cosine similarity of two d-bit hypervectors equals
``1 - 2 * hamming / d``, a strictly decreasing function of the Hamming
distance.  We therefore compute Hamming distances internally and expose
both normalisations for reporting (Figure 2 plots cosine similarities).
"""

from __future__ import annotations

import numpy as np

from .packing import hamming_packed_matrix, pack_bits

__all__ = [
    "hamming_distance",
    "inverse_hamming",
    "hamming_similarity",
    "cosine_similarity",
    "similarity_matrix",
    "packed_similarities",
]


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between unpacked {0,1} hypervectors.

    Broadcasts over leading axes, so a (k, d) matrix against a (d,) query
    yields k distances.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return np.bitwise_xor(a, b).sum(axis=-1, dtype=np.int64)


def inverse_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inverse Hamming similarity ``d - hamming`` (higher is closer)."""
    a = np.asarray(a, dtype=np.uint8)
    return a.shape[-1] - hamming_distance(a, b)


def hamming_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalised Hamming similarity ``1 - hamming/d`` in [0, 1]."""
    a = np.asarray(a, dtype=np.uint8)
    return 1.0 - hamming_distance(a, b) / a.shape[-1]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of the bipolar views, ``1 - 2*hamming/d``.

    Equal to the true cosine of the {-1,+1} representations; this is the
    quantity plotted in the paper's Figure 2.  Orthogonal (unrelated)
    hypervectors score ~0, identical ones 1, antipodes -1.
    """
    a = np.asarray(a, dtype=np.uint8)
    return 1.0 - 2.0 * hamming_distance(a, b) / a.shape[-1]


def similarity_matrix(vectors: np.ndarray, metric: str = "cosine") -> np.ndarray:
    """Pairwise similarity matrix of a set of unpacked hypervectors.

    ``vectors`` has shape (count, dim).  ``metric`` is ``"cosine"``,
    ``"hamming"`` (normalised similarity) or ``"distance"`` (raw Hamming
    distance).  This is the computation behind Figure 2.  The vectors
    are packed first (see :func:`packed_similarities`).
    """
    stack = np.atleast_2d(np.asarray(vectors, dtype=np.uint8))
    packed = pack_bits(stack)
    return packed_similarities(packed, packed, stack.shape[1], metric)


def packed_similarities(
    queries: np.ndarray, rows: np.ndarray, dim: int, metric: str = "cosine"
) -> np.ndarray:
    """Similarity of each packed query row to each packed row.

    Rows are in the :func:`~repro.hdc.packing.pack_bits` layout of
    ``dim``-bit hypervectors; returns ``(len(queries), len(rows))``.
    The Hamming distances are counted over packed words, one block of
    query rows at a time within a 32 MB budget
    (:func:`~repro.hdc.packing.hamming_packed_matrix`), and feed the
    same formulas as the unpacked metrics above.
    """
    distances = hamming_packed_matrix(queries, rows)
    if metric == "cosine":
        return 1.0 - 2.0 * distances / dim
    if metric == "hamming":
        return 1.0 - distances / dim
    if metric == "distance":
        return distances
    raise ValueError("unknown similarity metric {!r}".format(metric))
