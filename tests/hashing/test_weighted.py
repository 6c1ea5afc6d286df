"""Weighted ownership: fractions track spec weights, wrapper contracts.

The chi-squared machinery (``repro.analysis``) judges whether routed
load matches the *weight-proportional* expectation -- the heterogeneous
generalisation of the paper's Figure-6 uniformity test.  Weighted
rendezvous realises weights exactly (each key is independently won with
probability ``w_i / W``), so its statistic follows the chi-squared null
tightly; the virtual-multiplicity fallback quantizes weights into
``virtual_base`` members each, which adds placement granularity, so its
tolerance carries a slack factor.
"""

import numpy as np
import pytest

from repro.analysis import chi_squared_statistic, summarize_loads
from repro.errors import DuplicateServerError, WeightError
from repro.hashing import (
    VirtualWeightTable,
    WeightedRendezvousHashTable,
    algorithm_entry,
    make_table,
    registered_algorithms,
    weighted_table,
)
from repro.service import MembershipUpdate, Router

#: 99.9% chi-squared critical values by degrees of freedom.
_CHI2_999 = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52, 6: 22.46}

#: Slack multiplier for vnode-granular placements (the fallback path).
_VNODE_SLACK = 6.0

_WEIGHTS = {"small": 1.0, "medium": 2.0, "large": 4.0}

#: Demo-scale config overrides for the registry-wide tests.
_LIGHT_CONFIGS = {
    "hd": {"dim": 1_024, "codebook_size": 128},
    "maglev": {"table_size": 509},
}

#: The entries the wrapper holds virtual members in: every one without
#: native weights (``weighted_table`` wraps them; rendezvous is the
#: wrapper's default inner table).
_WRAPPED = [
    name
    for name in registered_algorithms()
    if "weighted" not in algorithm_entry(name).capabilities
]


def _weighted_counts(table, n_keys, seed=0):
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**64, n_keys, dtype=np.uint64)
    owners = table.lookup_words(words)
    ids = list(table.server_ids)
    index = {server_id: slot for slot, server_id in enumerate(ids)}
    counts = np.zeros(len(ids), dtype=np.int64)
    for owner in owners:
        counts[index[owner]] += 1
    return ids, counts


def _assert_weighted_fit(table, weights, n_keys, slack, seed=0):
    ids, counts = _weighted_counts(table, n_keys, seed=seed)
    total_weight = sum(weights[server_id] for server_id in ids)
    expected = np.asarray(
        [n_keys * weights[server_id] / total_weight for server_id in ids]
    )
    statistic = chi_squared_statistic(counts, expected)
    critical = _CHI2_999[len(ids) - 1] * slack
    assert statistic < critical, (
        "ownership does not track weights: chi2 {:.1f} >= {:.1f} "
        "(counts {}, expected {})".format(
            statistic, critical, counts.tolist(), expected.tolist()
        )
    )
    # The weight-corrected load vector is ~uniform: dividing each
    # count by its weight should leave no heavy outlier.
    corrected = counts / np.asarray([weights[s] for s in ids])
    summary = summarize_loads(corrected.astype(np.int64))
    assert summary.max_to_mean < 1.0 + 0.5 * slack / 6.0


class TestWeightedRendezvousOwnership:
    def test_ownership_tracks_weights_across_epochs(self):
        router = Router(make_table("weighted-rendezvous", seed=11))
        weights = dict(_WEIGHTS)
        router.sync([])  # no-op on empty targets
        update = MembershipUpdate(
            joins=tuple(weights), weights=tuple(weights.items())
        )
        router.apply(update)
        _assert_weighted_fit(router.table, weights, 12_000, slack=1.0)

        # Grow epoch: admit another heavy server, weights still hold.
        weights["huge"] = 8.0
        router.join("huge", weight=8.0)
        _assert_weighted_fit(router.table, weights, 12_000, slack=1.0)

        # Shrink epoch: retire the heaviest, remainder re-normalises.
        del weights["huge"]
        router.leave("huge")
        _assert_weighted_fit(router.table, weights, 12_000, slack=1.0)


class TestVirtualMultiplicityOwnership:
    @pytest.mark.parametrize("algorithm", ["rendezvous", "modular", "jump"])
    def test_fallback_ownership_tracks_weights(self, algorithm):
        table = make_table(
            "weighted", algorithm=algorithm, seed=7, virtual_base=32
        )
        assert isinstance(table, VirtualWeightTable)
        for server_id, weight in _WEIGHTS.items():
            table.join(server_id, weight=weight)
        _assert_weighted_fit(table, _WEIGHTS, 12_000, slack=_VNODE_SLACK)

    def test_fallback_across_grow_shrink_epochs(self):
        router = Router(weighted_table("modular", seed=3, virtual_base=32))
        weights = dict(_WEIGHTS)
        router.sync([])
        router.apply(
            MembershipUpdate(
                joins=tuple(weights), weights=tuple(weights.items())
            )
        )
        _assert_weighted_fit(
            router.table, weights, 12_000, slack=_VNODE_SLACK
        )
        weights["huge"] = 8.0
        router.join("huge", weight=8.0)
        _assert_weighted_fit(
            router.table, weights, 12_000, slack=_VNODE_SLACK
        )
        del weights["huge"]
        router.leave("huge")
        _assert_weighted_fit(
            router.table, weights, 12_000, slack=_VNODE_SLACK
        )


class TestVirtualWeightContract:
    def test_weight_native_algorithms_construct_directly(self):
        # Rendezvous's weight-capable form is weighted rendezvous, which
        # routes exactly like it at unit weights: no virtual members.
        for algorithm in ("weighted-rendezvous", "rendezvous"):
            table = weighted_table(algorithm, seed=1)
            assert table.name == "weighted-rendezvous"
            assert not isinstance(table, VirtualWeightTable)

    def test_multiplicity_scales_with_weight(self):
        table = make_table(
            "weighted", algorithm="rendezvous", seed=1, virtual_base=8
        )
        table.join("a", weight=1.0)
        table.join("b", weight=2.5)
        assert table.inner.server_count == 8 + 20
        table.leave("b")
        assert table.inner.server_count == 8

    def test_bad_weights_rejected(self):
        table = make_table("weighted", algorithm="rendezvous", seed=1)
        with pytest.raises(ValueError):
            table.join("a", weight=0.0)
        table.join("a")
        with pytest.raises(DuplicateServerError):
            table.join("a", weight=2.0)
        # A rejected duplicate must not disturb the live weight.
        assert table.weight_of("a") == 1.0
        assert table.inner.server_count == table.multiplicity(1.0)

    def test_no_self_nesting(self):
        with pytest.raises(ValueError):
            make_table("weighted", algorithm="weighted")

    @pytest.mark.parametrize("name", registered_algorithms())
    def test_batch_matches_scalar_and_replicas_distinct(self, name):
        config = dict(_LIGHT_CONFIGS, consistent={"replicas": 4})
        table = weighted_table(name, seed=5, **config.get(name, {}))
        for server_id, weight in _WEIGHTS.items():
            table.join(server_id, weight=weight)
        words = np.random.default_rng(2).integers(
            0, 2**64, 500, dtype=np.uint64
        )
        batch = table.route_batch(words)
        scalar = np.asarray(
            [table.route_word(int(word)) for word in words]
        )
        assert np.array_equal(batch, scalar)
        replicas = table.route_replicas_batch(words, 3)
        assert np.array_equal(replicas[:, 0], batch)
        for row in range(replicas.shape[0]):
            assert len(set(replicas[row].tolist())) == 3
            assert np.array_equal(
                replicas[row], table.route_word_replicas(int(words[row]), 3)
            )

    @pytest.mark.parametrize("inner", _WRAPPED)
    def test_snapshot_roundtrip_preserves_weights_and_routing(self, inner):
        from repro.hashing.base import DynamicHashTable
        from repro.service.snapshot import dumps_state, loads_state

        table = make_table(
            "weighted",
            algorithm=inner,
            seed=5,
            config=_LIGHT_CONFIGS.get(inner, {}),
        )
        for server_id, weight in _WEIGHTS.items():
            table.join(server_id, weight=weight)
        words = np.random.default_rng(3).integers(
            0, 2**64, 2_000, dtype=np.uint64
        )
        text = dumps_state(table.state_dict())
        restored = DynamicHashTable.from_state(loads_state(text))
        assert restored.weights == table.weights
        assert restored.virtual_base == table.virtual_base
        assert np.array_equal(
            restored.lookup_words(words), table.lookup_words(words)
        )


@pytest.mark.parametrize("name", registered_algorithms())
def test_weighted_table_is_weight_capable_for_every_entry(name):
    table = weighted_table(name, seed=3, **_LIGHT_CONFIGS.get(name, {}))
    assert table.supports_weights
    if name in ("rendezvous", "weighted-rendezvous"):
        assert type(table) is WeightedRendezvousHashTable
    else:
        assert type(table) is VirtualWeightTable
    for index, weight in enumerate((1.0, 2.0, 4.0) * 2):
        table.join("srv-{}".format(index), weight=weight)
    words = np.random.default_rng(5).integers(
        0, 2**64, 20_000, dtype=np.uint64
    )
    owners = table.lookup_words(words).tolist()
    light = owners.count("srv-0") + owners.count("srv-3")
    heavy = owners.count("srv-2") + owners.count("srv-5")
    # Weight 4 against weight 1 owns about 4x the keys (3.7-7.0x over
    # the entries); a weight-blind table would own about as many.
    assert heavy > 2 * light


class TestRouterWeightThreading:
    def test_weight_blind_table_rejects_weights(self):
        router = Router(make_table("modular", seed=1))
        with pytest.raises(WeightError):
            router.apply(
                MembershipUpdate(joins=("a",), weights=(("a", 2.0),))
            )
        # Nothing mutated, no epoch consumed.
        assert router.epoch == 0
        assert router.server_count == 0

    def test_unit_weight_allowed_on_weight_blind_table(self):
        router = Router(make_table("modular", seed=1))
        router.apply(
            MembershipUpdate(joins=("a",), weights=(("a", 1.0),))
        )
        assert router.server_ids == ("a",)

    def test_spec_objects_flow_through_update(self):
        from repro.control import ServerSpec

        update = MembershipUpdate(
            joins=(ServerSpec("a", weight=3.0), "b"),
            leaves=(ServerSpec("c", weight=2.0),),
        )
        assert update.joins == ("a", "b")
        assert update.leaves == ("c",)
        assert update.join_weights == {"a": 3.0}

    def test_weights_must_name_joining_servers(self):
        with pytest.raises(ValueError):
            MembershipUpdate(joins=("a",), weights=(("b", 2.0),))
        with pytest.raises(ValueError):
            MembershipUpdate(joins=("a",), weights=(("a", -1.0),))
