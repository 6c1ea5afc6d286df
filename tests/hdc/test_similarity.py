"""Tests for the similarity metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hdc import (
    cosine_similarity,
    hamming_distance,
    hamming_similarity,
    inverse_hamming,
    random_hypervectors,
    similarity_matrix,
)


def _pair(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (2, dim), dtype=np.uint8)


class TestHamming:
    @given(st.integers(1, 256), st.integers(0, 2 ** 31))
    def test_self_distance_zero(self, dim, seed):
        a, __ = _pair(dim, seed)
        assert hamming_distance(a, a) == 0

    @given(st.integers(1, 256), st.integers(0, 2 ** 31))
    def test_symmetry(self, dim, seed):
        a, b = _pair(dim, seed)
        assert hamming_distance(a, b) == hamming_distance(b, a)

    @given(st.integers(1, 128), st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
    def test_triangle_inequality(self, dim, seed_a, seed_b):
        a, b = _pair(dim, seed_a)
        c, __ = _pair(dim, seed_b)
        assert hamming_distance(a, c) <= (
            hamming_distance(a, b) + hamming_distance(b, c)
        )

    def test_broadcasting(self):
        matrix = np.eye(4, dtype=np.uint8)
        query = np.zeros(4, dtype=np.uint8)
        assert hamming_distance(matrix, query).tolist() == [1, 1, 1, 1]


class TestNormalisedMetrics:
    @given(st.integers(1, 256), st.integers(0, 2 ** 31))
    def test_identities(self, dim, seed):
        a, b = _pair(dim, seed)
        h = int(hamming_distance(a, b))
        assert inverse_hamming(a, b) == dim - h
        assert hamming_similarity(a, b) == pytest.approx(1 - h / dim)
        assert cosine_similarity(a, b) == pytest.approx(1 - 2 * h / dim)

    def test_cosine_range(self, rng):
        vectors = random_hypervectors(8, 512, rng)
        matrix = similarity_matrix(vectors)
        assert (matrix <= 1.0).all() and (matrix >= -1.0).all()

    def test_cosine_of_complement_is_minus_one(self):
        a = np.asarray([0, 1, 0, 1], dtype=np.uint8)
        assert cosine_similarity(a, 1 - a) == -1.0


class TestSimilarityMatrix:
    def test_diagonal_and_symmetry(self, rng):
        vectors = random_hypervectors(6, 256, rng)
        matrix = similarity_matrix(vectors)
        assert np.allclose(np.diag(matrix), 1.0)
        assert np.allclose(matrix, matrix.T)

    def test_random_vectors_near_orthogonal(self, rng):
        vectors = random_hypervectors(6, 10_000, rng)
        matrix = similarity_matrix(vectors)
        off_diag = matrix[~np.eye(6, dtype=bool)]
        assert np.abs(off_diag).max() < 0.1

    def test_metric_variants(self, rng):
        vectors = random_hypervectors(3, 64, rng)
        distances = similarity_matrix(vectors, metric="distance")
        hamming = similarity_matrix(vectors, metric="hamming")
        assert np.allclose(hamming, 1 - distances / 64)

    def test_unknown_metric(self, rng):
        with pytest.raises(ValueError):
            similarity_matrix(random_hypervectors(2, 8, rng), metric="l2")


def unpacked_similarity_matrix(vectors, metric):
    """The byte-per-bit formula: a (count, count, dim) XOR, summed."""
    distances = np.bitwise_xor(vectors[:, None, :], vectors[None, :, :]).sum(
        axis=-1, dtype=np.int64
    )
    dim = vectors.shape[1]
    return {
        "cosine": 1.0 - 2.0 * distances / dim,
        "hamming": 1.0 - distances / dim,
        "distance": distances,
    }[metric]


class TestPackedSimilarities:
    """Distances counted over packed words feed the same formulas, so every
    output equals the unpacked formula's bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "level", "circular"])
    @pytest.mark.parametrize("dim", [1, 63, 65, 1_000])
    def test_same_as_the_unpacked_formula(self, kind, dim):
        from repro.hdc import circular_basis, level_basis, random_basis

        build = {
            "random": random_basis,
            "level": level_basis,
            "circular": circular_basis,
        }
        for count in (1, 2, 7, 24):
            basis = build[kind](count, dim, np.random.default_rng(count))
            vectors = basis.vectors
            for metric in ("cosine", "hamming", "distance"):
                want = unpacked_similarity_matrix(vectors, metric)
                assert np.array_equal(basis.similarity_matrix(metric), want)
                assert np.array_equal(similarity_matrix(vectors, metric), want)
            for reference in (0, count - 1):
                assert np.array_equal(
                    basis.similarity_profile(reference),
                    unpacked_similarity_matrix(vectors, "cosine")[reference],
                )

    def test_paper_config_profile_is_one_row(self):
        import tracemalloc

        from repro.hdc import circular_basis

        basis = circular_basis(4_096, 10_000, np.random.default_rng(0))
        tracemalloc.start()
        try:
            profile = basis.similarity_profile()
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.shape == (4_096,) and profile[0] == 1.0
        assert peak <= 64 * 2**20
