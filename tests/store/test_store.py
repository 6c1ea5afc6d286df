"""The data plane: per-server stores, routed reads/writes, accounting."""

import numpy as np
import pytest

from repro.hashing import make_table
from repro.service import Router
from repro.store import DataPlane, ServerStore, item_nbytes

from ..conftest import NumberLike


def plane_with_fleet(n=8, algorithm="consistent"):
    router = Router(make_table(algorithm, seed=3))
    router.sync("srv-{}".format(i) for i in range(n))
    return DataPlane(router)


class TestServerStore:
    def test_put_get_delete_roundtrip(self):
        store = ServerStore("s0")
        store.put("k", b"value")
        assert store.get("k") == b"value"
        assert "k" in store and len(store) == 1
        assert store.delete("k") == b"value"
        assert "k" not in store and len(store) == 0

    def test_get_missing_raises_unless_default(self):
        store = ServerStore("s0")
        with pytest.raises(KeyError):
            store.get("ghost")
        assert store.get("ghost", 42) == 42
        with pytest.raises(KeyError):
            store.delete("ghost")

    def test_stored_none_is_not_missing(self):
        store = ServerStore("s0")
        store.put("k", None)
        assert store.get("k", "default") is None

    def test_byte_accounting_tracks_mutations(self):
        store = ServerStore("s0")
        assert store.nbytes == 0
        store.put("key", b"12345")
        assert store.nbytes == item_nbytes("key") + 5
        store.put("key", b"1234567890")  # overwrite re-accounts
        assert store.nbytes == item_nbytes("key") + 10
        store.delete("key")
        assert store.nbytes == 0

    def test_item_nbytes_is_deterministic(self):
        assert item_nbytes(b"abc") == 3
        assert item_nbytes("abc") == 3
        assert item_nbytes(7) == 8
        assert item_nbytes(1.5) == 8
        assert item_nbytes(None) == 0
        assert item_nbytes(np.zeros(4, dtype=np.int64)) == 32

    def test_bulk_operations(self):
        store = ServerStore("s0")
        charged = store.put_many([1, 2, 3], ["a", "b", "c"])
        assert charged == store.nbytes
        values, found = store.get_many([1, 9, 3], default="?")
        assert values == ["a", "?", "c"]
        assert found.tolist() == [True, False, True]
        hits = store.delete_many([1, 9])
        assert hits.tolist() == [1, 0]
        assert store.keys() == (2, 3)
        with pytest.raises(ValueError):
            store.put_many([1, 2], ["only-one"])

    def test_bulk_accounting_matches_scalar(self):
        # The bulk paths vectorize the byte accounting; every mixed
        # batch below must land on exactly the per-item sums.
        values = ["abc", 7, None, b"xy", np.zeros(3, dtype=np.int64), "123"]
        keys = list(range(len(values)))
        scalar = ServerStore("scalar")
        for key, value in zip(keys, values):
            scalar.put(key, value)
        bulk = ServerStore("bulk")
        charged = bulk.put_many(keys, values)
        assert bulk.nbytes == scalar.nbytes
        assert charged == sum(
            item_nbytes(k) + item_nbytes(v) for k, v in zip(keys, values)
        )
        # Overwrites re-account in bulk exactly as per-key puts do.
        bulk.put_many(keys[:2], ["zz", "longer-value"])
        scalar.put(keys[0], "zz")
        scalar.put(keys[1], "longer-value")
        assert bulk.nbytes == scalar.nbytes
        # Deletes release the same bytes, partial hits included.
        bulk.delete_many(keys + ["ghost"])
        for key in keys:
            scalar.delete(key)
        assert bulk.nbytes == scalar.nbytes == 0

    def test_put_many_duplicate_keys_match_sequential_puts(self):
        sequential = ServerStore("seq")
        for key, value in [(1, "a"), (1, "bb"), (2, "c")]:
            sequential.put(key, value)
        bulk = ServerStore("bulk")
        charged = bulk.put_many([1, 1, 2], ["a", "bb", "c"])
        assert bulk.nbytes == sequential.nbytes
        assert charged == sum(
            item_nbytes(k) + item_nbytes(v)
            for k, v in [(1, "a"), (1, "bb"), (2, "c")]
        )
        assert bulk.get(1) == "bb"

    def test_item_bytes_many_matches_scalar_probe(self):
        store = ServerStore("s0")
        store.put_many([1, "two"], [b"xyz", 9])
        probes = store.item_bytes_many([1, "ghost", "two"])
        assert probes.tolist() == [
            store.item_bytes(1),
            0,
            store.item_bytes("two"),
        ]

    def test_clone_is_independent(self):
        store = ServerStore("s0")
        store.put("k", "v")
        twin = store.clone()
        twin.put("k2", "v2")
        assert "k2" not in store
        assert twin.nbytes > store.nbytes


def exact_nbytes(store):
    return sum(item_nbytes(key) + item_nbytes(value) for key, value in store.items())


class TestExactPricing:
    """``nbytes`` stays the ``item_nbytes`` sum on the bulk paths, with
    values ``sum()`` takes for numbers.  Every mixed list starts with an
    int, so no head check settles it."""

    VALUES = [7, NumberLike(1), 2.5, NumberLike(3), True, NumberLike(5)]

    def test_put_many(self):
        store = ServerStore("s0")
        store.put_many(list(range(len(self.VALUES))), self.VALUES)
        assert store.nbytes == exact_nbytes(store)

    def test_delete_many(self):
        store = ServerStore("s0")
        keys = list(range(len(self.VALUES)))
        for key, value in zip(keys, self.VALUES):
            store.put(key, value)
        store.delete_many(keys[:4])
        assert store.nbytes == exact_nbytes(store) > 0

    def test_plane_put_many_owner_runs(self):
        plane = plane_with_fleet(n=4)
        keys = np.arange(4_000, dtype=np.int64)
        values = [NumberLike(k) if k % 2 and k > 64 else k for k in range(4_000)]
        plane.put_many(keys, values)
        assert len(plane.stores) == 4
        for store in plane.stores.values():
            # Keys up to 64 hold ints, so every owner run starts with one.
            assert type(next(iter(store.items()))[1]) is int
            assert store.nbytes == exact_nbytes(store)


class TestDataPlane:
    def test_put_routes_to_current_owner(self):
        plane = plane_with_fleet()
        owner = plane.put("user:1", "profile")
        assert owner == plane.router.route("user:1")
        assert plane.store(owner).get("user:1") == "profile"
        assert plane.get("user:1") == "profile"
        assert "user:1" in plane

    def test_get_missing_raises_unless_default(self):
        plane = plane_with_fleet()
        with pytest.raises(KeyError):
            plane.get("ghost")
        assert plane.get("ghost", None) is None
        with pytest.raises(KeyError):
            plane.delete("ghost")

    def test_put_many_places_every_key_at_its_owner(self):
        plane = plane_with_fleet()
        keys = np.arange(500, dtype=np.int64)
        owners = plane.put_many(keys, keys * 2)
        assert plane.key_count == 500
        routed = plane.router.route_batch(keys)
        assert list(owners) == list(routed)
        values, found = plane.get_many(keys)
        assert found.all()
        assert list(values) == [int(k) * 2 for k in keys]

    def test_reroute_makes_in_flight_keys_miss(self):
        # The property live migration depends on: reads consult the
        # *current* routing, so a rerouted-but-not-moved key misses.
        plane = plane_with_fleet(n=8, algorithm="modular")
        keys = np.arange(200, dtype=np.int64)
        plane.put_many(keys, keys)
        plane.router.sync("srv-{}".format(i) for i in range(9))
        __, found = plane.get_many(keys)
        assert 0 < found.sum() < 200  # moved keys miss, others hit

    def test_accounting_and_stats(self):
        plane = plane_with_fleet()
        plane.put_many(["a", "b", "c"], [b"1", b"22", b"333"])
        assert plane.total_bytes == sum(
            item_nbytes(k) + item_nbytes(v)
            for k, v in zip(["a", "b", "c"], [b"1", b"22", b"333"])
        )
        stats = plane.stats()
        assert sum(entry["keys"] for entry in stats.values()) == 3
        assert len(plane) == 3

    def test_keys_preserve_mixed_types(self):
        # np.asarray on mixed int/str keys would coerce everything to
        # strings, making migration plans name keys that don't exist.
        plane = plane_with_fleet()
        plane.put("user:x", b"a")
        plane.put(7, b"b")
        keys = plane.keys()
        assert keys.dtype == object
        assert set(keys.tolist()) == {"user:x", 7}

    def test_integer_keys_stay_vectorizable(self):
        plane = plane_with_fleet()
        plane.put_many(np.arange(50, dtype=np.int64), range(50))
        assert plane.keys().dtype.kind == "i"

    def test_track_installs_stored_keys_as_probes(self):
        plane = plane_with_fleet()
        keys = np.arange(300, dtype=np.int64)
        plane.put_many(keys, keys)
        assert plane.track() == 300
        assert set(plane.router.probe_keys.tolist()) == set(keys.tolist())

    def test_prune_drops_only_empty_foreign_stores(self):
        plane = plane_with_fleet(n=4)
        keys = np.arange(100, dtype=np.int64)
        plane.put_many(keys, keys)
        occupied = {s for s, st in plane.stores.items() if len(st)}
        plane.store("retired")  # empty store of a non-member
        assert plane.prune() == ("retired",)
        assert set(plane.stores) == occupied

    def test_clone_shares_router_but_not_stores(self):
        plane = plane_with_fleet()
        plane.put("k", "v")
        twin = plane.clone()
        twin.delete("k")
        assert plane.get("k") == "v"
        assert twin.router is plane.router


class TestFleetImbalance:
    def _plane(self, weights):
        from repro.hashing import weighted_table
        from repro.service import Router
        from repro.store import DataPlane

        router = Router(weighted_table("rendezvous", seed=6))
        for server_id, weight in weights.items():
            router.join(server_id, weight=weight)
        plane = DataPlane(router)
        keys = np.arange(4_000, dtype=np.int64)
        plane.put_many(keys, [b"x" * 32] * keys.size)
        return plane

    def test_weighted_stats_carry_load_factors(self):
        weights = {"a": 1.0, "b": 2.0, "c": 4.0}
        plane = self._plane(weights)
        stats = plane.stats(weights)
        for server_id, record in stats.items():
            assert record["weight"] == weights[server_id]
            assert 0.5 < record["keys_ratio"] < 1.5
            assert 0.5 < record["bytes_ratio"] < 1.5
        # Raw counts still proportional to weights (ratio near 1.0
        # means the heavy server holds ~4x the light one).
        assert stats["c"]["keys"] > 2.5 * stats["a"]["keys"]

    def test_unweighted_stats_shape_unchanged(self):
        plane = self._plane({"a": 1.0, "b": 1.0})
        stats = plane.stats()
        assert set(stats["a"]) == {"keys", "bytes"}

    def test_imbalance_vs_weight_proportional_ideal(self):
        weights = {"a": 1.0, "b": 2.0, "c": 4.0}
        plane = self._plane(weights)
        summary = plane.imbalance(weights)
        assert summary.servers == 3
        assert summary.total_keys == 4_000
        # Placement tracks the weights: max/ideal close to 1.
        assert 1.0 <= summary.keys_max_ratio < 1.3
        assert 0.7 < summary.keys_mean_ratio < 1.3
        assert 1.0 <= summary.bytes_max_ratio < 1.3
        # Judged against *uniform* ideal instead, the weight-4 server
        # (4/7 of the data on 1/3 of the servers) is a ~1.7x hot spot
        # -- the weights are what keep it honest.
        uniform = plane.imbalance()
        assert uniform.keys_max_ratio > 1.5
        assert "fleet imbalance" in summary.describe()

    def test_imbalance_excludes_departed_stores(self):
        weights = {"a": 1.0, "b": 1.0, "c": 1.0}
        plane = self._plane(weights)
        plane.router.leave("c")
        summary = plane.imbalance()
        assert summary.servers == 2
        # c's stranded keys are a migration backlog, not fleet load.
        assert summary.total_keys < 4_000

    def test_empty_fleet_imbalance(self):
        from repro.hashing import make_table
        from repro.service import Router
        from repro.store import DataPlane

        plane = DataPlane(Router(make_table("modular")))
        summary = plane.imbalance()
        assert summary.servers == 0
        assert summary.keys_max_ratio == 0.0

    def test_keys_deduplicated_across_stores(self):
        """Mid-drain a key legitimately lives in two stores; the probe
        population must count it once."""
        plane = self._plane({"a": 1.0, "b": 1.0})
        key = int(plane.store("a").keys()[0])
        plane.store("b").put(key, b"copy")
        keys = plane.keys()
        assert keys.size == 4_000
        assert plane.key_count == 4_001  # raw store total still sees both
