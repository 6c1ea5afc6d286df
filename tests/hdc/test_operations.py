"""Tests for the HDC operation primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hdc import (
    ItemMemory,
    bind,
    bundle,
    cosine_similarity,
    flip_bits,
    flipped,
    invert,
    permute,
    random_hypervector,
    random_hypervectors,
    validate_hypervector,
)

dims = st.integers(min_value=1, max_value=256)


def _vector(dim, seed):
    return np.random.default_rng(seed).integers(0, 2, size=dim, dtype=np.uint8)


class TestRandom:
    def test_shape_and_values(self, rng):
        vector = random_hypervector(1_000, rng)
        assert vector.shape == (1_000,)
        assert set(np.unique(vector)) <= {0, 1}

    def test_matrix_shape(self, rng):
        matrix = random_hypervectors(5, 64, rng)
        assert matrix.shape == (5, 64)

    def test_balanced_bits(self, rng):
        vector = random_hypervector(10_000, rng)
        assert 0.45 < vector.mean() < 0.55

    def test_invalid_dim(self, rng):
        with pytest.raises(ValueError):
            random_hypervector(0, rng)
        with pytest.raises(ValueError):
            random_hypervectors(0, 8, rng)


class TestBind:
    @given(dims, st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
    def test_self_inverse(self, dim, seed_a, seed_b):
        a, b = _vector(dim, seed_a), _vector(dim, seed_b)
        assert np.array_equal(bind(bind(a, b), b), a)

    @given(dims, st.integers(0, 2 ** 31))
    def test_identity_with_zero(self, dim, seed):
        a = _vector(dim, seed)
        assert np.array_equal(bind(a, np.zeros(dim, np.uint8)), a)

    @given(dims, st.integers(0, 2 ** 31), st.integers(0, 2 ** 31))
    def test_commutative(self, dim, seed_a, seed_b):
        a, b = _vector(dim, seed_a), _vector(dim, seed_b)
        assert np.array_equal(bind(a, b), bind(b, a))

    def test_binding_decorrelates(self, rng):
        a = random_hypervector(10_000, rng)
        b = random_hypervector(10_000, rng)
        bound = bind(a, b)
        # Bound vector is ~orthogonal to both factors.
        assert abs(np.bitwise_xor(bound, a).mean() - 0.5) < 0.05
        assert abs(np.bitwise_xor(bound, b).mean() - 0.5) < 0.05


class TestBundle:
    def test_majority_of_three(self):
        stack = np.asarray(
            [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=np.uint8
        )
        assert bundle(stack).tolist() == [1, 0, 0, 0]

    def test_tie_policies(self):
        stack = np.asarray([[1, 0], [0, 1]], dtype=np.uint8)
        assert bundle(stack, tie="one").tolist() == [1, 1]
        assert bundle(stack, tie="zero").tolist() == [0, 0]

    def test_bundle_preserves_similarity(self, rng):
        vectors = random_hypervectors(5, 10_000, rng)
        combined = bundle(vectors)
        for row in vectors:
            # Each input is closer to the bundle than an unrelated vector.
            unrelated = random_hypervector(10_000, rng)
            assert (
                np.bitwise_xor(combined, row).sum()
                < np.bitwise_xor(combined, unrelated).sum()
            )

    def test_single_vector_is_identity(self, rng):
        vector = random_hypervector(32, rng)
        assert np.array_equal(bundle(vector[None, :]), vector)

    def test_errors(self):
        with pytest.raises(ValueError):
            bundle(np.empty((0, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            bundle(np.ones((2, 4), dtype=np.uint8), tie="coin")


class TestPermute:
    @given(dims, st.integers(0, 2 ** 31), st.integers(-8, 8))
    def test_roundtrip(self, dim, seed, shift):
        vector = _vector(dim, seed)
        assert np.array_equal(permute(permute(vector, shift), -shift), vector)

    def test_shift_semantics(self):
        vector = np.asarray([1, 0, 0, 0], dtype=np.uint8)
        assert permute(vector, 1).tolist() == [0, 1, 0, 0]


class TestInvert:
    @given(dims, st.integers(0, 2 ** 31))
    def test_involution(self, dim, seed):
        vector = _vector(dim, seed)
        assert np.array_equal(invert(invert(vector)), vector)

    def test_full_distance(self, rng):
        vector = random_hypervector(128, rng)
        assert np.bitwise_xor(vector, invert(vector)).sum() == 128


class TestFlip:
    @given(
        st.integers(min_value=1, max_value=256),
        st.data(),
    )
    def test_exact_flip_count(self, dim, data):
        count = data.draw(st.integers(min_value=0, max_value=dim))
        vector = _vector(dim, 1)
        out = flip_bits(vector, count, np.random.default_rng(2))
        assert np.bitwise_xor(vector, out).sum() == count

    def test_flipped_weight(self, rng):
        t = flipped(100, 17, rng)
        assert t.sum() == 17

    def test_errors(self, rng):
        vector = _vector(16, 0)
        with pytest.raises(ValueError):
            flip_bits(vector, -1, rng)
        with pytest.raises(ValueError):
            flip_bits(vector, 17, rng)
        with pytest.raises(ValueError):
            flipped(4, 5, rng)


class TestValidate:
    def test_accepts_binary(self):
        assert validate_hypervector([0, 1, 1]).dtype == np.uint8

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            validate_hypervector([0, 2, 1])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            validate_hypervector(np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_hypervector(np.zeros(0))


class TestComposition:
    """Role-filler records and ordered n-grams composed from bind,
    bundle and permute, cleaned up through an item memory."""

    DIM = 8_192

    def _symbols(self, names, rng):
        return {name: random_hypervector(self.DIM, rng) for name in names}

    def _record(self, symbols, fields):
        return bundle(
            np.stack([bind(symbols[role], symbols[filler]) for role, filler in fields])
        )

    def _ngram(self, symbols, text):
        """Bind the symbols, each rotated by its distance from the end."""
        encoded = np.zeros(self.DIM, dtype=np.uint8)
        for shift, symbol in enumerate(reversed(text)):
            encoded = bind(encoded, permute(symbols[symbol], shift))
        return encoded

    def test_record_unbinds_to_each_filler(self, rng):
        fields = [("city", "irvine"), ("venue", "dac"), ("year", "2022")]
        symbols = self._symbols([name for pair in fields for name in pair], rng)
        record = self._record(symbols, fields)
        memory = ItemMemory(self.DIM)
        for __, filler in fields:
            memory.add(filler, symbols[filler])
        for role, filler in fields:
            probe = bind(record, symbols[role])
            __, label, __ = memory.query(probe)
            assert label == filler
            assert cosine_similarity(probe, symbols[filler]) > 0.25

    def test_more_fields_weaken_each_recovery(self, rng):
        roles = ["r{}".format(index) for index in range(9)]
        fillers = ["v{}".format(index) for index in range(9)]
        symbols = self._symbols(roles + fillers, rng)

        def recovered(count):
            record = self._record(symbols, list(zip(roles, fillers))[:count])
            probe = bind(record, symbols["r0"])
            return float(cosine_similarity(probe, symbols["v0"]))

        assert recovered(3) > recovered(9) > 0.1

    def test_unknown_role_unbinds_to_noise(self, rng):
        fields = [("city", "irvine"), ("venue", "dac"), ("year", "2022")]
        symbols = self._symbols(
            [name for pair in fields for name in pair] + ["ghost"], rng
        )
        probe = bind(self._record(symbols, fields), symbols["ghost"])
        for __, filler in fields:
            assert abs(float(cosine_similarity(probe, symbols[filler]))) < 0.1

    def test_permutation_encodes_order(self, rng):
        symbols = self._symbols("abc", rng)
        forward = self._ngram(symbols, "abc")
        assert np.array_equal(forward, self._ngram(symbols, "abc"))
        backward = self._ngram(symbols, "cba")
        assert abs(float(cosine_similarity(forward, backward))) < 0.1
        # Without the rotation, binding commutes and order is invisible.
        a, b, c = symbols["a"], symbols["b"], symbols["c"]
        assert np.array_equal(bind(bind(a, b), c), bind(bind(c, b), a))

    def test_one_changed_symbol_decorrelates_an_ngram(self, rng):
        symbols = self._symbols("abcde", rng)
        similarity = cosine_similarity(
            self._ngram(symbols, "abcd"), self._ngram(symbols, "abce")
        )
        assert abs(float(similarity)) < 0.1
