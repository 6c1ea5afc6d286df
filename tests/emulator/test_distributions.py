"""Tests for the request-key distributions."""

import numpy as np
import pytest

from repro.emulator import UniformKeys, ZipfKeys


class TestUniform:
    def test_shape_dtype_range(self, rng):
        keys = UniformKeys(space=1_000).sample(500, rng)
        assert keys.dtype == np.uint64
        assert keys.shape == (500,)
        assert keys.max() < 1_000

    def test_deterministic_by_seed(self):
        a = UniformKeys().sample(100, np.random.default_rng(1))
        b = UniformKeys().sample(100, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_invalid_space(self):
        with pytest.raises(ValueError):
            UniformKeys(space=0)


class TestZipf:
    def test_rank_one_most_popular(self, rng):
        keys = ZipfKeys(universe=1_000, exponent=1.2).sample(20_000, rng)
        counts = np.bincount(keys.astype(np.int64), minlength=1_000)
        assert counts.argmax() == 0
        assert counts[0] > counts[10] > counts[200]

    def test_universe_bound(self, rng):
        keys = ZipfKeys(universe=50).sample(5_000, rng)
        assert keys.max() < 50

    def test_offset_shifts_ids(self, rng):
        keys = ZipfKeys(universe=10, offset=1_000).sample(100, rng)
        assert keys.min() >= 1_000

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfKeys(universe=0)
        with pytest.raises(ValueError):
            ZipfKeys(exponent=0.0)
