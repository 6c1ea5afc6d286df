"""Contract tests every dynamic hash table must satisfy."""

import numpy as np
import pytest

from repro.errors import (
    DuplicateServerError,
    EmptyTableError,
    UnknownServerError,
)
from repro.hashing import make_table, registered_algorithms

from ..conftest import populate

#: Light configs so the suite stays fast.  Hierarchical's registry
#: default nests consistent rings, and both rings place a word at the
#: same point, so a group sees only its outer arc and some of 8
#: servers get no key; rendezvous groups reach every member.
LIGHT_CONFIG = {
    "hd": {"dim": 1_024, "codebook_size": 128},
    "maglev": {"table_size": 251},
    "hierarchical": {"outer": "consistent", "inner": "rendezvous", "n_groups": 3},
}


def _build(name):
    return make_table(name, seed=1, **LIGHT_CONFIG.get(name, {}))


@pytest.mark.parametrize("name", registered_algorithms())
class TestMembership:
    def test_join_and_contains(self, name):
        table = _build(name)
        table.join("alpha")
        assert "alpha" in table
        assert table.server_count == 1
        assert table.server_ids == ("alpha",)

    def test_duplicate_join_rejected(self, name):
        table = _build(name)
        table.join("alpha")
        with pytest.raises(DuplicateServerError):
            table.join("alpha")

    def test_leave_removes(self, name):
        table = populate(_build(name), 4)
        table.leave(2)
        assert 2 not in table
        assert table.server_count == 3

    def test_leave_unknown_rejected(self, name):
        table = _build(name)
        with pytest.raises(UnknownServerError):
            table.leave("ghost")

    def test_len_and_repr(self, name):
        table = populate(_build(name), 3)
        assert len(table) == 3
        assert "3" in repr(table)

    def test_identifier_types_preserved(self, name):
        """A str, int or bytes server id comes back unchanged -- value
        and type -- from membership and from every lookup."""
        ids = ("name", 42, b"\x00\xff")
        table = _build(name)
        for server_id in ids:
            table.join(server_id)
        assert table.server_ids == ids
        assert [type(server_id) for server_id in table.server_ids] == [
            str,
            int,
            bytes,
        ]
        typed = {(type(server_id), server_id) for server_id in ids}
        assigned = table.lookup_batch(np.arange(300, dtype=np.uint64))
        assert {(type(owner), owner) for owner in assigned} <= typed
        for key in ("a", 7, b"k"):
            owner = table.lookup(key)
            assert (type(owner), owner) in typed
        table.leave(b"\x00\xff")
        assert table.server_ids == ("name", 42)


@pytest.mark.parametrize("name", registered_algorithms())
class TestLookups:
    def test_empty_table_raises(self, name):
        table = _build(name)
        with pytest.raises(EmptyTableError):
            table.lookup("key")
        with pytest.raises(EmptyTableError):
            table.lookup_batch(np.arange(4, dtype=np.uint64))

    def test_lookup_returns_member(self, name):
        table = populate(_build(name), 8)
        for key in ("a", "b", 42, b"raw"):
            assert table.lookup(key) in table.server_ids

    def test_lookup_deterministic(self, name):
        table = populate(_build(name), 8)
        assert table.lookup("stable-key") == table.lookup("stable-key")

    def test_scalar_matches_batch(self, name, request_words):
        table = populate(_build(name), 8)
        words = request_words[:200]
        batch = table.route_batch(words)
        scalar = [table.route_word(int(word)) for word in words]
        assert batch.tolist() == scalar

    def test_lookup_batch_returns_ids(self, name, request_words):
        table = populate(_build(name), 8)
        keys = np.arange(100, dtype=np.uint64)
        assigned = table.lookup_batch(keys)
        assert assigned.shape == (100,)
        assert set(assigned.tolist()) <= set(table.server_ids)

    def test_lookup_batch_mixed_keys(self, name):
        table = populate(_build(name), 4)
        assigned = table.lookup_batch(["a", "b", "c"])
        assert assigned.shape == (3,)

    def test_all_servers_reachable(self, name, request_words):
        table = populate(_build(name), 8)
        slots = table.route_batch(request_words)
        assert set(np.unique(slots).tolist()) == set(range(8))


@pytest.mark.parametrize("name", registered_algorithms())
class TestReplicaDeterminism:
    def test_identically_built_tables_agree(self, name, request_words):
        first = populate(_build(name), 12)
        second = populate(_build(name), 12)
        assert np.array_equal(
            first.route_batch(request_words), second.route_batch(request_words)
        )

    def test_agreement_survives_churn(self, name, request_words):
        def churn(table):
            populate(table, 10)
            table.leave(3)
            table.leave(7)
            table.join("late-1")
            table.join("late-2")
            return table

        first = churn(_build(name))
        second = churn(_build(name))
        a = first.route_batch(request_words)
        b = second.route_batch(request_words)
        assert np.array_equal(a, b)
        assert first.server_ids == second.server_ids


@pytest.mark.parametrize("name", registered_algorithms())
class TestMemoryRegions:
    def test_regions_exist_and_are_writable(self, name):
        table = populate(_build(name), 6)
        regions = table.memory_regions()
        assert regions, "every table must expose routing state"
        for region in regions:
            assert region.n_bits > 0
            region.flip(0)
            region.flip(0)  # restore

    def test_region_flips_are_visible_to_lookups(self, name, request_words):
        """Corrupting the exposed state must be able to change routing --
        otherwise the robustness experiment would be vacuous.  HD hashing
        is *designed* to shrug off scattered flips, so corruption is
        applied in escalating chunks until routing reacts."""
        table = populate(_build(name), 6)
        words = request_words[:300]
        reference = table.route_batch(words).copy()
        regions = table.memory_regions()
        rng = np.random.default_rng(9)
        snapshot = [region.snapshot() for region in regions]
        changed = False
        flipped = 0
        budget = sum(region.n_bits for region in regions) // 2
        while not changed and flipped < budget:
            for __ in range(max(10, budget // 20)):
                region = regions[rng.integers(0, len(regions))]
                region.flip(int(rng.integers(0, region.n_bits)))
                flipped += 1
            changed = not np.array_equal(table.route_batch(words), reference)
        for region, saved in zip(regions, snapshot):
            region.restore(saved)
        assert changed, "massive corruption never changed any route"
        assert np.array_equal(table.route_batch(words), reference)
