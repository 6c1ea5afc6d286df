"""Tests for the serving front-end and the epoch-exact invalidator."""

import asyncio
import gc
import warnings

import numpy as np

from repro.hashing import make_table
from repro.serve import EpochInvalidator, HotKeyCache, ServingFrontend, ServingMetrics
from repro.service import ClusterRouter, Router
from repro.store import DataPlane


def tracked_stack(name="consistent", servers=6, keys=400, seed=3):
    router = Router(make_table(name, seed=seed))
    router.sync(["srv-{}".format(index) for index in range(servers)])
    plane = DataPlane(router)
    population = list(range(keys))
    plane.put_many(population, population)
    plane.track()
    return router, plane, population


class TestEpochInvalidator:
    def test_exact_eviction_when_tracked(self):
        router, plane, population = tracked_stack()
        cache = HotKeyCache(1_024)
        for key in population:
            cache.put(key, key)
        metrics = ServingMetrics()
        router.subscribe(EpochInvalidator(cache, router, metrics=metrics))
        result = router.join("srv-new")
        moved = {key for batch in result.plan.batches for key in batch.keys}
        assert moved  # the epoch must have remapped something
        assert set(cache.keys()) == set(population) - moved
        assert metrics.invalidated_keys == len(moved)
        assert metrics.cache_flushes == 0

    def test_blanket_flush_when_untracked(self):
        router = Router(make_table("consistent", seed=3))
        router.sync(["a", "b", "c"])
        cache = HotKeyCache(64)
        cache.put("k", 1)
        metrics = ServingMetrics()
        router.subscribe(EpochInvalidator(cache, router, metrics=metrics))
        router.join("d")  # no probe population: unknowable remap set
        assert len(cache) == 0
        assert metrics.cache_flushes == 1

    def test_leave_epoch_also_exact(self):
        router, plane, population = tracked_stack()
        cache = HotKeyCache(1_024)
        for key in population[:100]:
            cache.put(key, key)
        router.subscribe(EpochInvalidator(cache, router))
        plane.track()
        result = router.leave("srv-0")
        moved = {key for batch in result.plan.batches for key in batch.keys}
        assert set(cache.keys()) == set(population[:100]) - moved


class TestServingFrontendSync:
    def test_subscribes_per_shard_for_clusters(self):
        cluster = ClusterRouter("consistent", n_shards=3, seed=3)
        cluster.sync(["a", "b", "c", "d"])
        plane = DataPlane(cluster)
        population = list(range(500))
        plane.put_many(population, population)
        plane.track()
        frontend = ServingFrontend(plane)
        for key in population:
            frontend.cache.put(key, key)
        results = cluster.sync(["a", "b", "c", "d", "e"])
        moved = {key for batch in results.plan.batches for key in batch.keys}
        assert set(frontend.cache.keys()) == set(population) - moved
        assert frontend.metrics.cache_flushes == 0
        frontend.close()

    def test_restored_cluster_shard_keeps_exact_invalidation(self):
        cluster = ClusterRouter("consistent", n_shards=3, seed=3)
        cluster.sync(["a", "b", "c", "d"])
        plane = DataPlane(cluster)
        population = list(range(500))
        plane.put_many(population, population)
        plane.track()
        frontend = ServingFrontend(plane)
        frontend.cache.put_many(population, population)
        cluster.restore_shard(0, cluster.snapshot_shard(0))
        results = cluster.sync(["a", "b", "c", "d", "e"])
        moved = {key for batch in results.plan.batches for key in batch.keys}
        assert moved
        assert set(frontend.cache.keys()) == set(population) - moved
        frontend.close()
        for shard in cluster.shards:
            assert not any(
                isinstance(observer, EpochInvalidator) for observer in shard._observers
            )

    def test_close_detaches_invalidators(self):
        router, plane, population = tracked_stack()
        frontend = ServingFrontend(plane)
        frontend.cache.put(population[0], population[0])
        frontend.close()
        plane.track()
        router.join("srv-new")
        # no invalidator attached: the entry survives regardless
        assert len(frontend.cache) == 1


class TestServingFrontendAsync:
    def test_roundtrip_under_running_loop(self):
        async def scenario():
            router, plane, population = tracked_stack()
            frontend = ServingFrontend(plane, max_batch=16, max_delay=0.002)
            frontend.start()
            assert frontend.running
            owner = await frontend.put("fresh", "value")
            assert owner in router.server_ids
            assert await frontend.get("fresh") == "value"
            assert await frontend.lookup("ghost") == (False, None)
            assert await frontend.delete("fresh") is True
            assert await frontend.get("fresh", "gone") == "gone"
            await frontend.stop()
            assert not frontend.running
            frontend.close()

        asyncio.run(scenario())

    def test_cached_and_uncached_reads_agree_in_type(self):
        # A 2-d value batch written through the batcher: the cache holds
        # its rows as arrays, and so must the stores behind it.
        async def scenario():
            router, plane, population = tracked_stack()
            frontend = ServingFrontend(plane, max_batch=16, max_delay=0.002)
            keys = ["row-{}".format(index) for index in range(4)]
            rows = np.arange(8).reshape(4, 2)
            frontend.batcher.serve_puts(keys, rows)
            frontend.start()
            cached = await frontend.get(keys[0])
            frontend.cache.invalidate_many(keys)
            stored = await frontend.get(keys[0])
            await frontend.stop()
            frontend.close()
            return cached, stored

        cached, stored = asyncio.run(scenario())
        assert type(cached) is type(stored) is np.ndarray
        assert cached.tolist() == stored.tolist() == [0, 1]

    def test_start_twice_rejected(self):
        async def scenario():
            __, plane, __ = tracked_stack()
            frontend = ServingFrontend(plane)
            frontend.start()
            try:
                frontend.start()
            except RuntimeError as error:
                assert "already running" in str(error)
            else:  # pragma: no cover - the assertion above must fire
                raise AssertionError("second start() should be rejected")
            await frontend.stop()
            frontend.close()

        asyncio.run(scenario())

    def test_stop_flushes_pending(self):
        async def scenario():
            __, plane, __ = tracked_stack()
            # Deadline far away: only stop()'s drain can serve these.
            frontend = ServingFrontend(plane, max_batch=1_000, max_delay=60.0)
            frontend.start()
            futures = [
                frontend.put("key-{}".format(index), index) for index in range(5)
            ]
            pending = asyncio.gather(*futures)
            await asyncio.sleep(0)  # let the submits enqueue
            await frontend.stop()
            await asyncio.wait_for(pending, timeout=5.0)
            assert plane.get("key-4") == 4
            frontend.close()

        asyncio.run(scenario())

    def test_stop_serves_a_request_submitted_while_stopping(self):
        async def scenario():
            router, plane, __ = tracked_stack()
            frontend = ServingFrontend(plane, max_batch=1_000, max_delay=60.0)
            frontend.start()
            await asyncio.sleep(0)  # let the flush loop park

            async def late_caller():
                # First runs while stop() awaits the flush loop.
                return await frontend.put("late", 1)

            late = asyncio.get_running_loop().create_task(late_caller())
            await frontend.stop()
            assert frontend.batcher.pending == 0
            assert await asyncio.wait_for(late, timeout=5.0) in router.server_ids
            assert plane.get("late") == 1
            frontend.close()

        asyncio.run(scenario())

    def test_request_after_stop_is_served_by_the_next_start(self):
        async def scenario():
            __, plane, __ = tracked_stack()
            frontend = ServingFrontend(plane, max_batch=16, max_delay=0.002)
            frontend.start()
            await frontend.stop()
            parked = frontend.put("after-stop", 1)
            await asyncio.sleep(0.01)
            assert not parked.done() and frontend.batcher.pending == 1
            frontend.start()
            await asyncio.wait_for(parked, timeout=5.0)
            await frontend.stop()
            frontend.close()
            return plane.get("after-stop")

        assert asyncio.run(scenario()) == 1

    def test_unawaited_put_is_still_served(self):
        async def scenario():
            __, plane, __ = tracked_stack()
            frontend = ServingFrontend(plane, max_batch=16, max_delay=0.002)
            frontend.start()
            frontend.put("unawaited", 7)  # the future is dropped, never awaited
            await asyncio.wait_for(asyncio.gather(frontend.lookup(0)), timeout=5.0)
            stored = plane.get("unawaited", None)
            await frontend.stop()
            frontend.close()
            return stored

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert asyncio.run(scenario()) == 7
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestFailingBatch:
    """A batch whose dispatch raises fails alone; the loop keeps serving."""

    def test_bad_key_fails_its_batch_and_the_loop_keeps_serving(self):
        async def scenario():
            __, plane, __ = tracked_stack()
            frontend = ServingFrontend(plane, max_batch=16, max_delay=0.002)
            frontend.start()
            # A float key is one the routing hash rejects; ``1`` shares
            # its batch.
            bad, good = frontend.lookup(3.5), frontend.lookup(1)
            outcomes = await asyncio.wait_for(
                asyncio.gather(bad, good, return_exceptions=True), timeout=5.0
            )
            assert [type(outcome) for outcome in outcomes] == [TypeError] * 2
            assert outcomes[0] is outcomes[1]
            assert frontend.running
            assert await asyncio.wait_for(frontend.lookup(2), timeout=5.0) == (
                True,
                2,
            )
            await frontend.stop()
            frontend.close()

        asyncio.run(scenario())

    def test_drain_fails_the_bad_batch_and_serves_the_next(self):
        async def scenario():
            __, plane, __ = tracked_stack()
            frontend = ServingFrontend(plane, max_batch=2, max_delay=60.0)
            batcher = frontend.batcher
            bad, good = frontend.lookup(3.5), frontend.put(7, "seven")
            later = frontend.lookup(2)
            assert batcher.drain() == 3
            for future in (bad, good):
                assert isinstance(future.exception(), TypeError)
            assert later.result() == (True, 2)
            assert plane.get(7) == 7  # the failed batch wrote nothing
            frontend.close()

        asyncio.run(scenario())

    def test_error_after_the_batch_resolved_reaches_the_loop_handler(self):
        async def scenario():
            __, plane, __ = tracked_stack()
            frontend = ServingFrontend(plane, max_batch=16, max_delay=0.002)
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            metrics = frontend.batcher.metrics
            observe_ops = metrics.observe_ops
            fault = RuntimeError("metrics fault")

            def faulty(**counts):
                observe_ops(**counts)
                if not reported:
                    raise fault

            metrics.observe_ops = faulty
            frontend.start()
            # The fault strikes after the batch resolved its future.
            assert await asyncio.wait_for(frontend.lookup(1), timeout=5.0) == (
                True,
                1,
            )
            assert [context["exception"] for context in reported] == [fault]
            assert frontend.running
            assert await asyncio.wait_for(frontend.lookup(2), timeout=5.0) == (
                True,
                2,
            )
            assert len(reported) == 1
            await frontend.stop()
            frontend.close()

        asyncio.run(scenario())
