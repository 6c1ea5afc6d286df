"""Tests for the 64-bit avalanche mixers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashfn import (
    MASK64,
    fmix64,
    fmix64_vec,
    mix_pair,
    mix_pair_vec,
    rotl64,
    rotl64_vec,
    splitmix64,
    splitmix64_vec,
)

u64 = st.integers(min_value=0, max_value=MASK64)

_PAIRS = [
    (splitmix64, splitmix64_vec),
    (fmix64, fmix64_vec),
]


class TestRotl:
    def test_identity_at_zero(self):
        assert rotl64(0x1234, 0) == 0x1234

    def test_full_rotation_is_identity(self):
        assert rotl64(0xDEADBEEF, 64) == 0xDEADBEEF

    def test_known_rotation(self):
        assert rotl64(1, 1) == 2
        assert rotl64(1 << 63, 1) == 1

    @given(u64, st.integers(min_value=0, max_value=200))
    def test_rotation_preserves_popcount(self, value, count):
        assert bin(rotl64(value, count)).count("1") == bin(value).count("1")

    @given(st.lists(u64, min_size=1, max_size=8), st.integers(0, 63))
    def test_vector_matches_scalar(self, values, count):
        array = np.asarray(values, dtype=np.uint64)
        expected = [rotl64(v, count) for v in values]
        assert rotl64_vec(array, count).tolist() == expected


class TestMixers:
    @pytest.mark.parametrize("scalar,vector", _PAIRS)
    @given(values=st.lists(u64, min_size=1, max_size=16))
    def test_vector_matches_scalar(self, scalar, vector, values):
        array = np.asarray(values, dtype=np.uint64)
        assert vector(array).tolist() == [scalar(v) for v in values]

    @pytest.mark.parametrize("scalar,__", _PAIRS)
    def test_deterministic(self, scalar, __):
        assert scalar(42) == scalar(42)

    @pytest.mark.parametrize("scalar,__", _PAIRS)
    def test_no_collisions_on_sample(self, scalar, __):
        outputs = {scalar(v) for v in range(10_000)}
        assert len(outputs) == 10_000

    @pytest.mark.parametrize("scalar,__", _PAIRS)
    def test_avalanche(self, scalar, __):
        """Flipping one input bit flips ~half the output bits."""
        rng = np.random.default_rng(7)
        flipped_counts = []
        for __iter in range(200):
            value = int(rng.integers(0, 2 ** 63))
            bit = int(rng.integers(0, 64))
            delta = scalar(value) ^ scalar(value ^ (1 << bit))
            flipped_counts.append(bin(delta).count("1"))
        mean = np.mean(flipped_counts)
        assert 24.0 < mean < 40.0

    def test_splitmix_reference_progression(self):
        # SplitMix64 is bijective; its outputs for consecutive inputs are
        # pairwise distinct and stable across runs (regression anchors).
        first = splitmix64(0)
        second = splitmix64(1)
        assert first != second
        assert splitmix64(0) == first


class TestMixPair:
    @given(u64, u64)
    def test_scalar_vector_agree(self, a, b):
        out = mix_pair_vec(np.asarray([a], np.uint64), np.asarray([b], np.uint64))
        assert int(out[0]) == mix_pair(a, b)

    @given(u64, u64)
    def test_asymmetric(self, a, b):
        if a != b:
            assert mix_pair(a, b) != mix_pair(b, a) or a == b

    def test_broadcast_matrix(self):
        a = np.arange(4, dtype=np.uint64)[:, None]
        b = np.arange(3, dtype=np.uint64)[None, :]
        matrix = mix_pair_vec(a, b)
        assert matrix.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert int(matrix[i, j]) == mix_pair(i, j)

    def test_pair_depends_on_both_arguments(self):
        base = mix_pair(1, 2)
        assert mix_pair(1, 3) != base
        assert mix_pair(2, 2) != base
