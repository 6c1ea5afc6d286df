"""Tests for random-, level- and circular-hypervector construction.

The circular tests verify the corrected Algorithm 1 semantics, including
the XOR-closure property and the odd-cardinality footnote.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import (
    circular_basis,
    circular_hypervectors,
    hamming_distance,
    level_basis,
    level_hypervectors,
    random_basis,
    transformation_flip_counts,
)


class TestFlipCounts:
    @given(
        steps=st.integers(min_value=1, max_value=64),
        dim=st.integers(min_value=1, max_value=20_000),
    )
    def test_total_is_exact(self, steps, dim):
        counts = transformation_flip_counts(steps, dim)
        assert sum(counts) == dim
        assert all(count >= 0 for count in counts)

    def test_even_split(self):
        assert transformation_flip_counts(4, 100) == [25, 25, 25, 25]

    def test_fractional_accumulation(self):
        counts = transformation_flip_counts(3, 10)
        assert sum(counts) == 10
        assert max(counts) - min(counts) <= 1

    def test_override_total(self):
        assert sum(transformation_flip_counts(5, 100, total=40)) == 40

    def test_invalid(self):
        with pytest.raises(ValueError):
            transformation_flip_counts(0, 10)
        with pytest.raises(ValueError):
            transformation_flip_counts(2, 10, total=-1)


class TestRandomBasis:
    def test_shape_and_kind(self, rng):
        basis = random_basis(5, 128, rng)
        assert basis.kind == "random"
        assert basis.count == 5 and basis.dim == 128

    def test_near_orthogonal(self, rng):
        basis = random_basis(8, 10_000, rng)
        matrix = basis.similarity_matrix()
        off = matrix[~np.eye(8, dtype=bool)]
        assert np.abs(off).max() < 0.1


class TestLevelBasis:
    def test_monotone_decay_from_first(self, rng):
        vectors = level_hypervectors(12, 10_000, rng)
        distances = [
            int(hamming_distance(vectors[0], vectors[j])) for j in range(12)
        ]
        assert distances == sorted(distances)

    def test_endpoints_dissimilar(self, rng):
        basis = level_basis(12, 10_000, rng)
        assert basis.similarity_profile()[-1] < 0.25

    def test_adjacent_step_sizes(self, rng):
        vectors = level_hypervectors(11, 1_000, rng)
        steps = transformation_flip_counts(10, 1_000)
        for index in range(1, 11):
            observed = int(hamming_distance(vectors[index - 1], vectors[index]))
            assert observed == steps[index - 1]

    def test_single_level(self, rng):
        assert level_hypervectors(1, 64, rng).shape == (1, 64)

    def test_invalid_count(self, rng):
        with pytest.raises(ValueError):
            level_hypervectors(0, 64, rng)


class TestCircularConstruction:
    def test_shapes(self, rng):
        for count in (2, 4, 12, 64):
            vectors = circular_hypervectors(count, 512, rng)
            assert vectors.shape == (count, 512)

    def test_closure_wrap_step(self, rng):
        """d(c_0, c_{n-1}) equals the weight of the one remaining queued
        transformation -- the corrected Algorithm 1's closure property."""
        dim, count = 2_048, 16
        vectors = circular_hypervectors(count, dim, rng)
        steps = transformation_flip_counts(count // 2, dim)
        wrap_distance = int(hamming_distance(vectors[0], vectors[-1]))
        assert wrap_distance == steps[-1]

    def test_forward_steps_exact(self, rng):
        dim, count = 1_024, 12
        vectors = circular_hypervectors(count, dim, rng)
        steps = transformation_flip_counts(count // 2, dim)
        for index in range(1, count // 2 + 1):
            observed = int(hamming_distance(vectors[index - 1], vectors[index]))
            assert observed == steps[index - 1]

    def test_backward_reapplies_queued_transformations(self, rng):
        """c_{half+j} = c_{half+j-1} XOR t_j implies the second half walks
        back towards c_0 with the same step weights, FIFO order."""
        dim, count = 1_024, 12
        vectors = circular_hypervectors(count, dim, rng)
        steps = transformation_flip_counts(count // 2, dim)
        half = count // 2
        for j in range(1, count - half):
            observed = int(hamming_distance(vectors[half + j - 1], vectors[half + j]))
            assert observed == steps[j - 1]

    def test_no_discontinuity(self, rng):
        """The wrap-around step is no bigger than any interior step."""
        basis = circular_basis(16, 4_096, rng)
        profile = basis.similarity_profile()
        interior_drop = profile[0] - profile[1]
        wrap_drop = profile[0] - profile[-1]
        assert wrap_drop <= interior_drop * 1.5

    def test_antipode_least_similar(self, rng):
        basis = circular_basis(12, 10_000, rng)
        profile = basis.similarity_profile()
        assert np.argmin(profile) in (5, 6, 7)

    def test_symmetry_of_profile(self, rng):
        basis = circular_basis(16, 10_000, rng)
        profile = basis.similarity_profile()
        for j in range(1, 8):
            assert profile[j] == pytest.approx(profile[16 - j], abs=0.08)

    @settings(max_examples=10)
    @given(
        count=st.integers(min_value=3, max_value=33).filter(lambda n: n % 2 == 1),
    )
    def test_odd_cardinality_footnote(self, count):
        rng = np.random.default_rng(count)
        vectors = circular_hypervectors(count, 256, rng)
        assert vectors.shape == (count, 256)
        doubled = circular_hypervectors(
            2 * count, 256, np.random.default_rng(count)
        )
        assert np.array_equal(vectors, doubled[::2])

    def test_circular_distance_monotone_to_antipode(self, rng):
        count, dim = 24, 10_000
        vectors = circular_hypervectors(count, dim, rng)
        distances = [
            int(hamming_distance(vectors[0], vectors[j]))
            for j in range(count // 2 + 1)
        ]
        assert all(
            later >= earlier - dim // 100
            for earlier, later in zip(distances, distances[1:])
        )

    def test_invalid_count(self, rng):
        with pytest.raises(ValueError):
            circular_hypervectors(0, 64, rng)


class TestBasisSet:
    def test_vectors_read_only(self, rng):
        basis = circular_basis(8, 64, rng)
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 1

    def test_packed_cached_and_read_only(self, rng):
        basis = circular_basis(8, 64, rng)
        assert basis.packed() is basis.packed()
        with pytest.raises(ValueError):
            basis.packed()[0, 0] = 1

    def test_getitem_and_len(self, rng):
        basis = random_basis(4, 32, rng)
        assert len(basis) == 4
        assert basis[2].shape == (32,)

    def test_requires_2d(self):
        from repro.hdc import BasisSet

        with pytest.raises(ValueError):
            BasisSet("random", np.zeros(8, dtype=np.uint8))

    def test_rejects_values_other_than_zero_and_one(self):
        from repro.hdc import BasisSet

        for bad in ([[2, 0, 1, 0, 0, 0, 0, 0]], [[0, -1]], [[0.5, 1.0]]):
            with pytest.raises(ValueError):
                BasisSet("random", bad)
        assert BasisSet("random", [[True, False, True]]).packed()[0, 0] == 0b101
        assert BasisSet("random", np.zeros((0, 8), np.uint8)).count == 0
