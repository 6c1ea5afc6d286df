"""Semantic tests for HD hashing (the paper's contribution)."""

import numpy as np
import pytest

from repro.errors import CapacityError
from repro.hashfn import HashFamily
from repro.hashing import HDHashTable
from repro.hdc import circular_basis, level_basis
from repro.hdc.packing import hamming_packed

from ..conftest import populate


def _table(**kwargs):
    defaults = dict(seed=1, dim=1_024, codebook_size=128)
    defaults.update(kwargs)
    return HDHashTable(**defaults)


class TestEncoding:
    def test_server_placed_at_hash_position(self):
        table = _table()
        table.join("s0")
        natural = table.family.word("s0") % table.codebook_size
        assert table.position_of("s0") == natural

    def test_request_routes_to_nearest_row(self, request_words):
        table = populate(_table(), 10)
        memory = table.item_memory.memory_view()
        for word in request_words[:100]:
            position = int(word) % table.codebook_size
            query = table._codebook_packed[position]
            distances = hamming_packed(query, memory, table.item_memory.backend)
            assert table.route_word(int(word)) == int(np.argmin(distances))

    def test_words_congruent_mod_n_route_alike(self, request_words):
        """Eq. 1 reads a word only through ``word % n``."""
        table = populate(_table(), 10)
        n = table.codebook_size
        words = request_words[:500] % np.uint64(2**40)
        shifted = words + np.uint64(n) * np.arange(1, 501, dtype=np.uint64)
        assert np.array_equal(table.route_batch(words), table.route_batch(shifted))
        assert np.array_equal(
            table.infer_batch(words)[0], table.infer_batch(shifted)[0]
        )

    def test_server_row_is_its_codebook_row(self):
        """A joined server stores codebook row ``position_of(server)``."""
        table = populate(_table(), 10)
        memory = table.item_memory.memory_view()
        packed = table.codebook.packed()
        for slot, server in enumerate(table.server_ids):
            position = table.position_of(server)
            assert np.array_equal(memory[slot], packed[position])

    def test_request_on_server_node_routes_to_that_server(self):
        table = populate(_table(), 10)
        for server in table.server_ids:
            word = table.position_of(server)  # word % n == the node itself
            assert table.server_ids[table.route_word(word)] == server

    def test_nearest_circle_node_wins(self):
        """Routing approximates nearest-server-on-circle, both directions
        (Figure 1: 'the direction of rotation does not matter')."""
        table = populate(_table(codebook_size=256), 12)
        nodes = np.asarray(
            [table.position_of(server) for server in table.server_ids]
        )
        n = table.codebook_size
        agreements = 0
        for position in range(n):
            routed = table.route_word(position)
            delta = np.abs(nodes - position)
            circ = np.minimum(delta, n - delta)
            if circ[routed] == circ.min():
                agreements += 1
        assert agreements / n > 0.95


class TestPlacementCollisions:
    def test_probing_resolves_collisions(self):
        table = _table(codebook_size=4)
        for index in range(4):
            table.join(index)  # positions collide with only 4 nodes
        positions = {table.position_of(index) for index in range(4)}
        assert positions == {0, 1, 2, 3}

    def test_capacity_error_when_circle_full(self):
        table = _table(codebook_size=4)
        for index in range(4):
            table.join(index)
        with pytest.raises(CapacityError):
            table.join("overflow")

    def test_leave_frees_position(self):
        table = _table(codebook_size=4)
        for index in range(4):
            table.join(index)
        table.leave(2)
        table.join("replacement")
        assert table.server_count == 4


class TestBatchDedup:
    def test_kernel_runs_once_per_unique_word(self, monkeypatch):
        """Inference sends a duplicate-heavy batch to the similarity
        kernel as one call over its unique circle positions.  Routing
        reads the position memo instead: building it queries each
        position at most once, and a warm memo makes no kernel call."""
        table = populate(_table(), 8)
        words = np.asarray([5, 7, 5, 9, 7, 5] * 50, dtype=np.uint64)
        queried = []
        original = type(table.item_memory).query_batch_words

        def spy(self, query_words, **kwargs):
            queried.append(np.atleast_2d(np.asarray(query_words)).copy())
            return original(self, query_words, **kwargs)

        monkeypatch.setattr(
            type(table.item_memory), "query_batch_words", spy
        )
        inferred, __ = table.infer_batch(words)
        assert [rows.shape[0] for rows in queried] == [3]

        queried.clear()
        routed = table.route_batch(words)  # builds the memo
        rows = np.concatenate(queried)
        assert rows.shape[0] <= table.codebook_size
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
        assert np.array_equal(routed, inferred)

        queried.clear()
        table.route_batch(words)
        expected = {word: table.route_word(int(word)) for word in (5, 7, 9)}
        assert queried == []  # warm memo: gathers only
        assert routed.tolist() == [expected[int(w)] for w in words]

        table._position_owners()  # infers every position not yet known
        rows = np.concatenate(queried)
        assert rows.shape[0] == table.codebook_size - 3
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


class TestTieBreaks:
    def test_stable_under_rebuild(self, request_words):
        a = populate(_table(), 16)
        b = populate(_table(), 16)
        assert np.array_equal(
            a.route_batch(request_words), b.route_batch(request_words)
        )


class TestCodebookHandling:
    def test_shared_codebook_matches_owned(self, request_words):
        family = HashFamily(seed=1)
        rng = np.random.default_rng(family.derive("codebook").seed)
        shared = circular_basis(128, 1_024, rng)
        owned = populate(_table(), 8)
        injected = populate(HDHashTable(seed=1, codebook=shared), 8)
        assert np.array_equal(
            owned.route_batch(request_words),
            injected.route_batch(request_words),
        )

    def test_level_codebook_rejected_by_default(self, rng):
        basis = level_basis(64, 512, rng)
        with pytest.raises(ValueError):
            HDHashTable(seed=1, codebook=basis)

    def test_level_codebook_allowed_when_overridden(self, rng):
        basis = level_basis(64, 512, rng)
        table = HDHashTable(seed=1, codebook=basis, require_circular=False)
        populate(table, 4)
        assert table.lookup("k") in table.server_ids


class TestMinimalDisruption:
    def test_leave_only_moves_leavers_keys(self, request_words):
        table = populate(_table(codebook_size=512), 16)
        ids = np.asarray(table.server_ids, dtype=object)
        before = ids[table.route_batch(request_words)]
        table.leave(5)
        ids_after = np.asarray(table.server_ids, dtype=object)
        after = ids_after[table.route_batch(request_words)]
        moved = before != after
        assert np.all(before[moved] == 5)


class TestMemoryRegions:
    def test_default_exposes_item_memory_only(self):
        table = populate(_table(), 4)
        names = [region.name for region in table.memory_regions()]
        assert names == ["item_memory"]

    def test_item_memory_bits_scale_with_servers(self):
        table = populate(_table(), 4)
        region = table.memory_regions()[0]
        assert region.n_bits == 4 * table.dim

    def test_codebook_region_optional(self):
        table = populate(_table(expose_codebook=True), 4)
        names = [region.name for region in table.memory_regions()]
        assert names == ["item_memory", "codebook"]
        codebook_region = table.memory_regions()[1]
        assert codebook_region.n_bits == table.codebook_size * table.dim


class TestRobustnessMechanism:
    def test_scattered_flips_rarely_change_routes(self, request_words):
        """The Figure 5 mechanism at unit-test scale: 10 flips across the
        item memory leave the vast majority of routes untouched."""
        table = populate(HDHashTable(seed=1, dim=4_096, codebook_size=512), 32)
        words = request_words
        reference = table.route_batch(words).copy()
        region = table.memory_regions()[0]
        rng = np.random.default_rng(11)
        saved = region.snapshot()
        mismatches = []
        for __ in range(5):
            for bit in rng.choice(region.n_bits, size=10, replace=False):
                region.flip(int(bit))
            observed = table.route_batch(words)
            mismatches.append(float(np.mean(observed != reference)))
            region.restore(saved)
        assert np.mean(mismatches) < 0.01
