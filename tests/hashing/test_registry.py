"""Tests for the string-keyed algorithm registry."""

import numpy as np
import pytest

from repro.errors import UnknownAlgorithmError
from repro.hashing import (
    ALL_ALGORITHMS,
    PAPER_ALGORITHMS,
    DynamicHashTable,
    HDHashTable,
    HierarchicalHashTable,
    algorithm_entry,
    make_table,
    register_table,
    registered_algorithms,
    table_class,
)
from repro.hashing.registry import TableConfig

#: Demo-scale config overrides so the parametrized tests stay fast.
LIGHT_CONFIG = {"hd": {"dim": 1_024, "codebook_size": 128}}


def build(name, seed=0):
    return make_table(name, seed=seed, **LIGHT_CONFIG.get(name, {}))


class TestRegistryContents:
    def test_all_algorithms_registered(self):
        assert set(registered_algorithms()) == {
            "modular",
            "consistent",
            "rendezvous",
            "hd",
            "jump",
            "maglev",
            "bounded-consistent",
            "weighted-rendezvous",
            "multiprobe-consistent",
            "hierarchical",
            "weighted",
        }

    def test_paper_flags(self):
        assert set(registered_algorithms(paper_only=True)) == {
            "modular",
            "consistent",
            "rendezvous",
            "hd",
        }

    def test_legacy_dicts_derived_from_registry(self):
        for name, cls in PAPER_ALGORITHMS.items():
            assert table_class(name) is cls
        for name, cls in ALL_ALGORITHMS.items():
            assert table_class(name) is cls
        assert "hierarchical" not in ALL_ALGORITHMS  # factory-built

    def test_entries_carry_descriptions(self):
        for name in registered_algorithms():
            assert algorithm_entry(name).description


class TestCapabilityFlags:
    def test_churn_incremental_coverage(self):
        # Derived from the bulk membership kernel overrides: one
        # array-level structural update per membership event.  HD, jump
        # and Maglev mutate per scalar event by design (their per-event
        # work is already O(1)-ish), and the weighted wrapper admits one
        # real server at a time (nothing calls it with several), so
        # they are truthfully unflagged.
        flagged = {
            name
            for name in registered_algorithms()
            if "churn-incremental" in algorithm_entry(name).capabilities
        }
        assert flagged == {
            "modular",
            "consistent",
            "bounded-consistent",
            "multiprobe-consistent",
            "rendezvous",
            "weighted-rendezvous",
            "hierarchical",
        }

    def test_delta_close_coverage(self):
        # Derived from the delta-scoped score kernels.  Multi-probe
        # *overrides* the kernels it inherits from the ring -- but only
        # to opt out (best-probe placement breaks the one-score-per-key
        # contract), so the flag must not leak through the override.
        flagged = {
            name
            for name in registered_algorithms()
            if "delta-close" in algorithm_entry(name).capabilities
        }
        assert flagged == {
            "hd",
            "consistent",
            "bounded-consistent",
            "rendezvous",
            "weighted-rendezvous",
            "weighted",
        }

    def test_delta_close_flags_match_kernel_behaviour(self):
        # The flag is only a promise that a fast path *exists*; check it
        # against live tables -- flagged algorithms return a score or a
        # routing position per word (modulo config gates), unflagged
        # ones return neither.
        words = np.arange(64, dtype=np.uint64)
        for name in registered_algorithms():
            table = build(name)
            for index in range(4):
                table.join("srv-{}".format(index))
            fast = table._delta_scores(words)
            if fast is None:
                fast = table._route_positions(words)
            if "delta-close" not in algorithm_entry(name).capabilities:
                assert fast is None, name
            else:
                assert fast is not None, name
                assert fast.shape == words.shape, name


@pytest.mark.parametrize("name", [
    "modular", "consistent", "rendezvous", "hd", "jump", "maglev",
    "bounded-consistent", "weighted-rendezvous", "multiprobe-consistent",
    "hierarchical",
])
class TestMakeTable:
    def test_constructs_and_routes(self, name):
        table = build(name, seed=1)
        assert isinstance(table, DynamicHashTable)
        assert table.name == name
        for i in range(5):
            table.join(i)
        assert table.lookup("key") in table.server_ids

    def test_name_matches_class(self, name):
        assert isinstance(build(name), table_class(name))


class TestSpecsAndErrors:
    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithmError):
            make_table("quantum")
        # ... which remains catchable as the builtin ValueError.
        with pytest.raises(ValueError):
            make_table("quantum")

    def test_unknown_config_key_rejected(self):
        with pytest.raises(TypeError, match="modular"):
            make_table("modular", replicas=3)

    def test_mapping_spec(self):
        table = make_table(
            {"algorithm": "consistent", "config": {"replicas": 3}}
        )
        assert table.replicas == 3

    def test_kwargs_override_mapping_spec(self):
        table = make_table(
            {"algorithm": "consistent", "config": {"replicas": 3}},
            replicas=5,
        )
        assert table.replicas == 5

    def test_config_values_reach_constructor(self):
        table = make_table("hd", dim=512, codebook_size=64, expose_codebook=True)
        assert table.dim == 512
        assert table.codebook_size == 64
        regions = [region.name for region in table.memory_regions()]
        assert regions == ["item_memory", "codebook"]

    def test_hierarchical_spec_composition(self):
        table = make_table(
            "hierarchical",
            n_groups=2,
            outer="consistent",
            inner={"algorithm": "hd",
                   "config": {"dim": 512, "codebook_size": 64, "seed": 9}},
        )
        assert isinstance(table, HierarchicalHashTable)
        assert table.n_groups == 2
        assert isinstance(table.inner(0), HDHashTable)
        assert table.inner(0).dim == 512

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_table("modular", config=TableConfig)(
                type("Fake", (DynamicHashTable,), {})
            )

    def test_third_party_registration(self):
        from repro.hashing.registry import _REGISTRY
        from repro.hashing import ModularHashTable

        @register_table("test-custom", config=TableConfig)
        class CustomTable(ModularHashTable):
            name = "test-custom"

        try:
            table = make_table("test-custom", seed=4)
            assert isinstance(table, CustomTable)
        finally:
            del _REGISTRY["test-custom"]


class TestBuilderDeterminism:
    def test_same_seed_same_routing(self, request_words):
        for name in registered_algorithms():
            a = build(name, seed=7)
            b = build(name, seed=7)
            for i in range(6):
                a.join(i)
                b.join(i)
            assert np.array_equal(
                a.route_batch(request_words[:300]),
                b.route_batch(request_words[:300]),
            ), name
