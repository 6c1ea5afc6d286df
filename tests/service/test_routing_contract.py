"""The routing contract, once for both routers.

``Router`` and ``ClusterRouter`` share one serving surface: reads fail
over around avoided servers, writes land at the assigned owner.  Every
test runs on a plain router, on a 3-shard cluster and on the weighted
fleet ``repro control`` serves (``weighted_table``, weights 1, 2 and
4), over every registered algorithm.
"""

import pytest

from repro.control import ServerSpec
from repro.errors import EmptyTableError, UnknownServerError
from repro.hashing import make_table, registered_algorithms, weighted_table
from repro.service import ClusterRouter, Router, RouterObserver

#: Light configs so the suite stays fast.
LIGHT_CONFIG = {"hd": {"dim": 1_024, "codebook_size": 128}}
CONFIGS = {name: LIGHT_CONFIG.get(name, {}) for name in registered_algorithms()}
FLEET = ("a", "b", "c", "d", "e", "f")
WEIGHTED_FLEET = [
    ServerSpec(server_id, weight=weight)
    for server_id, weight in zip(FLEET, (1.0, 2.0, 4.0) * 2)
]
KEYS = list(range(400))


def plain(algorithm):
    return Router(make_table(algorithm, seed=8, **CONFIGS[algorithm]))


def sharded(algorithm):
    spec = {"algorithm": algorithm, "config": CONFIGS[algorithm]}
    return ClusterRouter(spec, n_shards=3, seed=8)


def weighted(algorithm):
    return Router(weighted_table(algorithm, seed=8, **CONFIGS[algorithm]))


@pytest.fixture(
    params=[
        (build, algorithm)
        for build in (plain, sharded, weighted)
        for algorithm in CONFIGS
    ],
    ids=lambda param: "{}-{}".format(param[0].__name__, param[1]),
)
def router(request):
    build, algorithm = request.param
    router = build(algorithm)
    router.sync(WEIGHTED_FLEET if build is weighted else FLEET)
    return router


def epochs(router):
    return [shard.epoch for shard in router.shards]


class TestRoutingContract:
    def test_in_checks_membership(self, router):
        assert "a" in router
        assert "ghost" not in router

    def test_avoid_reroutes_flagged_keys_to_first_healthy_replica(self, router):
        primaries = {key: router.route(key) for key in KEYS}
        victim = primaries[0]
        router.avoid(victim)
        assert router.avoided == frozenset({victim})
        for key in KEYS:
            owner = router.route(key)
            if primaries[key] == victim:
                assert owner == router.route_replicas(key, 2)[1]
            else:
                assert owner == primaries[key]

    def test_readmit_lifts_flag(self, router):
        primaries = [router.route(key) for key in KEYS]
        router.avoid("a")
        router.readmit("a")
        assert router.avoided == frozenset()
        router.readmit("a")  # idempotent
        assert [router.route(key) for key in KEYS] == primaries

    def test_per_call_avoid_merges_with_persistent(self, router):
        router.avoid("a")
        owners = [router.route(key, avoid={"b"}) for key in KEYS]
        assert set(owners) <= set(FLEET) - {"a", "b"}
        assert router.route_batch(KEYS, avoid={"b"}).tolist() == owners
        assert router.avoided == frozenset({"a"})

    def test_per_call_avoid_serves_the_next_replica(self, router):
        for key in KEYS[:60]:
            replicas = router.route_replicas(key, 2)
            assert router.route(key, avoid={replicas[0]}) == replicas[1]
            other = next(s for s in FLEET if s not in replicas)
            assert router.route(key, avoid={other}) == replicas[0]

    def test_flag_dropped_when_server_leaves(self, router):
        router.avoid("c")
        router.leave("c")
        assert router.avoided == frozenset()
        router.join("c")
        assert router.avoided == frozenset()

    def test_unknown_server_raises(self, router):
        with pytest.raises(UnknownServerError):
            router.avoid("ghost")
        assert router.avoided == frozenset()

    def test_avoiding_whole_fleet_raises(self, router):
        with pytest.raises(EmptyTableError):
            router.route(1, avoid=set(FLEET))
        with pytest.raises(EmptyTableError):
            router.route_batch(KEYS, avoid=set(FLEET))
        for server_id in FLEET:
            router.avoid(server_id)
        with pytest.raises(EmptyTableError):
            router.route(1)

    def test_route_batch_matches_scalar_under_avoid(self, router):
        router.avoid("b")
        batch = router.route_batch(KEYS, avoid={"d"}).tolist()
        assert not {"b", "d"} & set(batch)
        assert batch == [router.route(key, avoid={"d"}) for key in KEYS]
        index, ids = router.owner_indices(KEYS, avoid={"d"})
        assert [ids[i] for i in index.tolist()] == batch

    def test_assign_ignores_avoid(self, router):
        owners = router.assign_batch(KEYS).tolist()
        router.avoid("a")
        assert "a" in owners
        assert [router.assign(key) for key in KEYS] == owners
        assert router.assign_batch(KEYS).tolist() == owners
        assert router.route_words(router.words_of_keys(KEYS)).tolist() == owners
        index, ids = router.owner_indices(KEYS, avoid={"b"}, reads=0)
        assert [ids[i] for i in index.tolist()] == owners

    def test_reads_route_and_writes_assign_in_one_batch(self, router):
        router.avoid("a")
        reads = 150
        index, ids = router.owner_indices(KEYS, avoid={"c"}, reads=reads)
        owners = [ids[i] for i in index.tolist()]
        assert owners[:reads] == router.route_batch(KEYS[:reads], avoid={"c"}).tolist()
        assert owners[reads:] == router.assign_batch(KEYS[reads:]).tolist()
        assert {"a", "c"} <= set(owners[reads:])

    def test_replica_head_is_the_assigned_owner(self, router):
        router.avoid("a")
        batch = router.route_replicas_batch(KEYS, 3)
        assert batch.shape == (len(KEYS), 3)
        assert batch[:, 0].tolist() == router.assign_batch(KEYS).tolist()
        for key in KEYS[::37]:
            replicas = router.route_replicas(key, 3)
            assert replicas[0] == router.assign(key)
            assert len(set(replicas)) == 3
            assert replicas == tuple(batch[key])

    def test_avoid_does_not_change_membership(self, router):
        before = epochs(router)
        router.avoid("a")
        router.route(7, avoid={router.route(7)})
        router.route_batch(KEYS)
        assert epochs(router) == before
        assert len(router) == len(FLEET)

    def test_subscribe_unsubscribe(self, router):
        seen = []

        class Recorder(RouterObserver):
            def on_epoch(self, result):
                seen.append(result.record.epoch)

        observer = router.subscribe(Recorder())
        router.join("g")
        # One event per shard: each shard closes its own epoch.
        assert seen == [2] * len(router.shards)
        router.unsubscribe(observer)
        router.leave("g")
        assert seen == [2] * len(router.shards)
