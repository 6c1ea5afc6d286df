"""Key canonicalisation and hash-family tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashfn import HashFamily, key_to_word, keys_to_words


class TestKeyToWord:
    def test_int_str_bytes_supported(self):
        assert isinstance(key_to_word(42), int)
        assert isinstance(key_to_word("server-1"), int)
        assert isinstance(key_to_word(b"raw"), int)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            key_to_word(True)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            key_to_word(3.14)
        with pytest.raises(TypeError):
            key_to_word(("tuple",))

    def test_str_and_equivalent_bytes_agree(self):
        assert key_to_word("abc") == key_to_word(b"abc")

    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_word_in_range(self, key):
        assert 0 <= key_to_word(key) < 2 ** 64

    @given(st.integers(min_value=0, max_value=2 ** 62), st.integers(0, 2 ** 31))
    def test_seed_separates(self, key, seed):
        assert key_to_word(key, seed=seed + 1) != key_to_word(key, seed=seed)

    def test_distinct_ints_distinct_words(self):
        words = {key_to_word(i) for i in range(10_000)}
        assert len(words) == 10_000  # splitmix64 is bijective


class TestKeysToWords:
    def test_matches_scalar(self):
        keys = np.arange(100, dtype=np.uint64)
        words = keys_to_words(keys, seed=9)
        expected = [key_to_word(int(k), seed=9) for k in keys]
        assert words.tolist() == expected

    def test_requires_integer_array(self):
        with pytest.raises(TypeError):
            keys_to_words(np.asarray([1.5, 2.5]))

    def test_signed_input_accepted(self):
        words = keys_to_words(np.arange(4, dtype=np.int32))
        assert words.dtype == np.uint64


class TestHashFamily:
    def test_derive_deterministic(self):
        family = HashFamily(seed=11)
        assert family.derive("ring").seed == family.derive("ring").seed

    def test_derive_labels_independent(self):
        family = HashFamily(seed=11)
        assert family.derive("ring").seed != family.derive("hrw").seed

    def test_words_matches_word(self):
        family = HashFamily(seed=5)
        keys = np.arange(64, dtype=np.uint64)
        assert family.words(keys).tolist() == [family.word(int(k)) for k in keys]

    def test_pair_vec_matches_pair(self):
        family = HashFamily(seed=5)
        a = np.arange(6, dtype=np.uint64)[:, None]
        b = np.arange(4, dtype=np.uint64)[None, :]
        matrix = family.pair_vec(a, b)
        for i in range(6):
            for j in range(4):
                assert int(matrix[i, j]) == family.pair(i, j)

    def test_different_seeds_disagree(self):
        assert HashFamily(1).word("x") != HashFamily(2).word("x")

    def test_frozen(self):
        family = HashFamily(seed=1)
        with pytest.raises(AttributeError):
            family.seed = 2
