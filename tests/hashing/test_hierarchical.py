"""Tests for hierarchical composition."""

import pytest

from repro.errors import EmptyTableError
from repro.hashing import (
    ConsistentHashTable,
    HDHashTable,
    HierarchicalHashTable,
)

from ..conftest import populate


def _hierarchy(n_groups=4, seed=2):
    return HierarchicalHashTable(
        outer_factory=lambda: ConsistentHashTable(seed=seed),
        inner_factory=lambda: HDHashTable(
            seed=seed, dim=1_024, codebook_size=128
        ),
        n_groups=n_groups,
        seed=seed,
    )


class TestHierarchicalStructure:
    def test_groups_created(self):
        table = _hierarchy(n_groups=4)
        assert table.n_groups == 4
        assert table.outer.server_count == 4

    def test_join_assigns_to_group(self):
        table = populate(_hierarchy(), 16)
        for server in table.server_ids:
            group = table.group_of(server)
            assert server in table.inner(group)

    def test_groups_partition_servers(self):
        table = populate(_hierarchy(), 20)
        total = sum(
            table.inner(group).server_count for group in range(table.n_groups)
        )
        assert total == 20

    def test_leave_removes_from_group(self):
        table = populate(_hierarchy(), 12)
        group = table.group_of(5)
        before = table.inner(group).server_count
        table.leave(5)
        assert table.inner(group).server_count == before - 1

    def test_requires_empty_factories(self):
        def nonempty():
            inner = ConsistentHashTable(seed=1)
            inner.join("preexisting")
            return inner

        with pytest.raises(ValueError):
            HierarchicalHashTable(nonempty, nonempty, n_groups=2)

    def test_requires_groups(self):
        with pytest.raises(ValueError):
            HierarchicalHashTable(
                lambda: ConsistentHashTable(seed=1),
                lambda: ConsistentHashTable(seed=1),
                n_groups=0,
            )


class TestHierarchicalRouting:
    def test_lookup_returns_member(self):
        table = populate(_hierarchy(), 16)
        for key in ("a", "b", 99):
            assert table.lookup(key) in table.server_ids

    def test_routes_to_outer_selected_group(self):
        table = populate(_hierarchy(), 16)
        for key in range(50):
            word = table.family.word(key)
            group_slot = table.outer.route_word(word)
            # With every group populated, no probing happens.
            assigned = table.lookup(key)
            assert table.group_of(assigned) == group_slot

    def test_probes_past_empty_group(self):
        table = _hierarchy(n_groups=4)
        # Put all servers into whatever groups they hash to, then empty
        # one group manually.
        populate(table, 12)
        victim_group = table.group_of(0)
        for server in list(table.server_ids):
            if table.group_of(server) == victim_group:
                table.leave(server)
        assert table.inner(victim_group).server_count == 0
        for key in range(100):
            assert table.lookup(key) in table.server_ids

    def test_empty_everything_raises(self):
        table = _hierarchy()
        with pytest.raises(EmptyTableError):
            table.lookup("x")

    def test_replica_determinism(self, request_words):
        a = populate(_hierarchy(), 24)
        b = populate(_hierarchy(), 24)
        ids_a = [a.lookup(int(w)) for w in request_words[:100]]
        ids_b = [b.lookup(int(w)) for w in request_words[:100]]
        assert ids_a == ids_b

    def test_leave_blast_radius_is_one_group(self, request_words):
        table = populate(_hierarchy(n_groups=8), 64)
        before = {
            int(word): table.lookup(int(word)) for word in request_words[:500]
        }
        victim = 7
        victim_group = table.group_of(victim)
        table.leave(victim)
        for word, server in before.items():
            after = table.lookup(word)
            if after != server:
                # every moved key stays within the victim's group
                assert table.group_of(after) == victim_group
                assert server == victim


class TestHierarchicalMemory:
    def test_regions_are_namespaced(self):
        table = populate(_hierarchy(), 8)
        names = [region.name for region in table.memory_regions()]
        assert any(name.startswith("outer/") for name in names)
        assert any(name.startswith("group") for name in names)
        assert len(names) == len(set(names))

