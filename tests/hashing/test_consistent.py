"""Semantic tests for consistent hashing."""

import numpy as np
import pytest

from repro.hashing import ConsistentHashTable

from ..conftest import populate


def _naive_successor(positions, slots, key):
    """Reference successor scan: first position >= key, else wrap to the
    globally smallest position."""
    best_index = None
    for index, position in enumerate(positions):
        if position >= key:
            if best_index is None or positions[index] < positions[best_index]:
                best_index = index
    if best_index is None:
        best_index = int(np.argmin(positions))
    return slots[best_index]


class TestSuccessorSemantics:
    def test_matches_naive_scan(self, request_words):
        table = populate(ConsistentHashTable(seed=2), 16)
        positions = table._ring_positions.tolist()
        slots = table._ring_slots.tolist()
        for word in request_words[:300]:
            key = int(word) >> 32
            assert table.route_word(int(word)) == _naive_successor(
                positions, slots, key
            )

    def test_wraparound(self):
        table = ConsistentHashTable(seed=2)
        table.join("only")
        # Any key beyond the single position wraps to it.
        beyond = (int(table._ring_positions[0]) + 1) << 32
        assert table.route_word(beyond) == 0

    def test_search_backends_agree_pristine(self, request_words):
        count = populate(ConsistentHashTable(seed=2, search="count"), 20)
        bisect = populate(ConsistentHashTable(seed=2, search="bisect"), 20)
        assert np.array_equal(
            count.route_batch(request_words), bisect.route_batch(request_words)
        )

    def test_invalid_search_backend(self):
        with pytest.raises(ValueError):
            ConsistentHashTable(search="interpolate")


def _dense_count_route(table, words):
    """The count backend by definition: every key against every ring
    entry as stored, ``count(ring < key)`` wrapping to 0 at the end."""
    ring = table._ring_positions
    keys = table._keys_of_words(np.asarray(words, dtype=np.uint64))
    counts = (ring[None, :] < keys[:, None]).sum(axis=1)
    counts[counts == ring.size] = 0
    return table._ring_slots[counts]


class TestCountMatchesDenseComparison:
    """The count backend's sorted-copy search counts the same entries as
    the dense comparison, whatever the ring holds."""

    @staticmethod
    def _table(position_dtype, replicas=4):
        return populate(
            ConsistentHashTable(
                seed=6, replicas=replicas, position_dtype=position_dtype
            ),
            12,
        )

    @staticmethod
    def _words(table, rng, count=4_000):
        words = rng.integers(0, 2**64, count, dtype=np.uint64)
        # Keys exactly on ring positions, and the circle's two ends.
        on_ring = table._ring_positions.astype(np.float64)
        if table.position_dtype == "float32":
            on_ring = on_ring[np.isfinite(on_ring) & (on_ring >= 0) & (on_ring < 1)]
            on_ring = on_ring * 2.0**32
        fixed = np.clip(on_ring, 0, 2**32 - 1).astype(np.uint64)
        edges = np.asarray([0, 2**32 - 1], dtype=np.uint64)
        return np.concatenate([words, np.r_[fixed, edges] << np.uint64(32)])

    def assert_matches(self, table, words):
        dense = _dense_count_route(table, words)
        assert np.array_equal(table.route_batch(words), dense)

    @pytest.mark.parametrize("position_dtype", ["fixed32", "float32"])
    def test_flipped_bits(self, position_dtype):
        rng = np.random.default_rng(8)
        for trial in range(20):
            table = self._table(position_dtype)
            words = self._words(table, rng)
            self.assert_matches(table, words)
            # Flip random bits of the ring in place: the ring goes
            # unsorted, and a float32 exponent flip can make NaN or inf.
            raw = table._ring_positions.view(np.uint8)
            for __ in range(int(rng.integers(1, 6))):
                byte = int(rng.integers(raw.size))
                raw[byte] ^= np.uint8(1 << int(rng.integers(8)))
            self.assert_matches(table, words)

    def test_float32_nan_inf_signed_zero_and_duplicates(self):
        rng = np.random.default_rng(9)
        table = self._table("float32")
        words = self._words(table, rng)
        ring = table._ring_positions
        ring[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, np.nan]
        ring[6:10] = ring[10]  # duplicates, out of order
        self.assert_matches(table, words)
        ring[:] = np.nan  # no entry below any key: everything wraps to 0
        self.assert_matches(table, words)
        assert (table.route_batch(words) == table._ring_slots[0]).all()

    @pytest.mark.parametrize("position_dtype", ["fixed32", "float32"])
    def test_batches_spanning_several_searches(self, position_dtype):
        # Long batches are counted in chunks of keys; the last is partial.
        rng = np.random.default_rng(11)
        table = self._table(position_dtype)
        ring = table._ring_positions
        ring[::5] = ring[1::5]  # duplicates, out of order
        words = rng.integers(0, 2**64, 150_001, dtype=np.uint64)
        self.assert_matches(table, words)

    def test_fixed32_unsorted_with_duplicates(self):
        rng = np.random.default_rng(10)
        table = self._table("fixed32")
        words = self._words(table, rng)
        ring = table._ring_positions
        ring[::-1] = ring.copy()  # reversed
        ring[3] = ring[7] = 0
        ring[4] = ring[5] = 2**32 - 1
        self.assert_matches(table, words)


class TestRingMaintenance:
    def test_ring_sorted_after_churn(self):
        table = populate(ConsistentHashTable(seed=3), 32)
        table.leave(5)
        table.join("new")
        positions = table._ring_positions
        assert np.all(positions[:-1] <= positions[1:])

    def test_ring_size_tracks_replicas(self):
        table = populate(ConsistentHashTable(seed=3, replicas=5), 8)
        assert table.ring_size == 40

    def test_invalid_replicas(self):
        with pytest.raises(ValueError):
            ConsistentHashTable(replicas=0)

    def test_leave_removes_all_replicas(self):
        table = populate(ConsistentHashTable(seed=3, replicas=4), 6)
        table.leave(2)
        assert table.ring_size == 20
        assert set(table._ring_slots.tolist()) == set(range(5))


class TestMinimalDisruption:
    def test_join_only_moves_keys_to_new_server(self, request_words):
        table = populate(ConsistentHashTable(seed=4), 16)
        ids = np.asarray(table.server_ids, dtype=object)
        before = ids[table.route_batch(request_words)]
        table.join("newcomer")
        ids_after = np.asarray(table.server_ids, dtype=object)
        after = ids_after[table.route_batch(request_words)]
        moved = before != after
        assert np.all(after[moved] == "newcomer")

    def test_leave_only_moves_leavers_keys(self, request_words):
        table = populate(ConsistentHashTable(seed=4), 16)
        ids = np.asarray(table.server_ids, dtype=object)
        before = ids[table.route_batch(request_words)]
        table.leave(9)
        ids_after = np.asarray(table.server_ids, dtype=object)
        after = ids_after[table.route_batch(request_words)]
        moved = before != after
        assert np.all(before[moved] == 9)

    def test_remap_fraction_near_ideal(self, request_words):
        table = populate(ConsistentHashTable(seed=4), 64)
        before = table.route_batch(request_words).copy()
        table.join("newcomer")
        after = table.route_batch(request_words)
        moved = np.mean(before != after)
        # One in 65 expected; allow generous slack for arc-length variance.
        assert moved < 0.15


class TestReplicasImproveUniformity:
    def test_more_replicas_lower_chi2(self):
        from repro.analysis import uniformity_chi2

        words = np.random.default_rng(5).integers(
            0, 2 ** 64, 50_000, dtype=np.uint64
        )
        single = populate(ConsistentHashTable(seed=5, replicas=1), 32)
        many = populate(ConsistentHashTable(seed=5, replicas=32), 32)
        chi_single = uniformity_chi2(single.route_batch(words), 32)
        chi_many = uniformity_chi2(many.route_batch(words), 32)
        assert chi_many < chi_single


class TestPositionDtype:
    def test_float32_matches_fixed32_on_pristine_state(self, request_words):
        fixed = populate(ConsistentHashTable(seed=7), 24)
        floats = populate(
            ConsistentHashTable(seed=7, position_dtype="float32"), 24
        )
        agree = np.mean(
            fixed.route_batch(request_words) == floats.route_batch(request_words)
        )
        # float32 quantises the circle to 24 mantissa bits; boundary keys
        # may straddle a position, everything else must agree.
        assert agree > 0.999

    def test_float32_positions_in_unit_interval(self):
        table = populate(
            ConsistentHashTable(seed=7, position_dtype="float32"), 16
        )
        positions = table._ring_positions
        assert positions.dtype == np.float32
        assert float(positions.min()) >= 0.0
        assert float(positions.max()) < 1.0

    def test_float32_more_fragile_than_fixed32(self, request_words):
        from repro.memory import MismatchCampaign, SingleBitFlips

        outcomes = {}
        for dtype in ("fixed32", "float32"):
            table = populate(
                ConsistentHashTable(seed=7, position_dtype=dtype), 64
            )
            campaign = MismatchCampaign(table, request_words)
            outcomes[dtype] = campaign.run(
                SingleBitFlips(10),
                trials=6,
                rng=np.random.default_rng(17),
            ).mean_mismatch
        assert outcomes["float32"] > outcomes["fixed32"]

    def test_invalid_dtype(self):
        with pytest.raises(ValueError):
            ConsistentHashTable(position_dtype="float64")
