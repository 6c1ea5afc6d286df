"""Tests for the micro-batcher: dispatch core, semantics, asyncio loop."""

import asyncio
import inspect
import random

import numpy as np
import pytest

from repro.hashing import make_table
from repro.serve import HotKeyCache, MicroBatcher, Request
from repro.service import ClusterRouter, Router
from repro.store import DataPlane, ServerStore


def build_plane(servers=6, seed=3):
    router = Router(make_table("consistent", seed=seed))
    router.sync(["srv-{}".format(index) for index in range(servers)])
    return DataPlane(router)


def build_batcher(**kwargs):
    plane = build_plane()
    kwargs.setdefault("cache", HotKeyCache(64))
    return MicroBatcher(plane, **kwargs), plane


class TestRequest:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            Request("frobnicate", "k")

    def test_submit_rejects_unknown_op_and_enqueues_nothing(self):
        async def scenario():
            batcher, __ = build_batcher()
            with pytest.raises(ValueError, match="unknown op"):
                batcher.submit("frobnicate", "k")
            assert batcher.pending == 0

        asyncio.run(scenario())


class TestValidation:
    def test_bad_knobs_rejected(self):
        plane = build_plane()
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(plane, max_batch=0)
        with pytest.raises(ValueError, match="max_delay"):
            MicroBatcher(plane, max_delay=-1.0)


class TestSyncCore:
    def test_gets_fill_then_hit_the_cache(self):
        batcher, plane = build_batcher()
        plane.put_many(list(range(10)), list(range(10)))
        values, found = batcher.serve_gets(list(range(10)))
        assert found.all() and list(values) == list(range(10))
        assert batcher.cache.hits == 0
        values, found = batcher.serve_gets(list(range(10)))
        assert found.all()
        assert batcher.cache.hits == 10

    def test_missing_keys_reported_not_cached(self):
        batcher, __ = build_batcher()
        values, found = batcher.serve_gets(["ghost"])
        assert not found.any() and values[0] is None
        assert "ghost" not in batcher.cache

    def test_put_is_write_through(self):
        batcher, plane = build_batcher()
        batcher.serve_puts(["k"], ["v1"])
        assert batcher.cache.peek("k") == "v1"
        batcher.serve_puts(["k"], ["v2"])
        assert batcher.cache.peek("k") == "v2"
        assert plane.get("k") == "v2"

    def test_delete_evicts_and_reports(self):
        batcher, plane = build_batcher()
        batcher.serve_puts(["k"], ["v"])
        deleted = batcher.serve_deletes(["k", "ghost"])
        assert list(deleted) == [True, False]
        assert "k" not in batcher.cache
        assert plane.get("k", None) is None

    def test_cacheless_batcher_still_serves(self):
        plane = build_plane()
        batcher = MicroBatcher(plane, cache=None)
        plane.put("k", "v")
        values, found = batcher.serve_gets(["k"])
        assert found[0] and values[0] == "v"


def full_batcher(capacity=4, stored=32):
    """A batcher whose cache holds ``range(capacity)`` and is full."""
    plane = build_plane()
    plane.put_many(list(range(stored)), [key * 10 for key in range(stored)])
    batcher = MicroBatcher(plane, cache=HotKeyCache(capacity))
    batcher.serve_gets(list(range(capacity)))
    assert len(batcher.cache) == capacity
    return batcher, plane


class TestAdmission:
    """On a full cache an install that would evict must be earned."""

    def test_a_key_earns_its_install_on_its_second_miss(self):
        batcher, __ = full_batcher()
        cache = batcher.cache
        for attempt in range(2):
            values, found = batcher.serve_gets([20])
            assert found[0] and values[0] == 200
            assert (20 in cache) == bool(attempt)
        assert cache.rejections == 1 and cache.evictions == 1
        assert cache.keys() == (1, 2, 3, 20)

    def test_a_put_of_a_non_resident_key_goes_to_the_store_only(self):
        batcher, plane = full_batcher()
        cache = batcher.cache
        batcher.serve_puts([20], ["new"])
        assert cache.keys() == (0, 1, 2, 3)
        assert cache.evictions == 0 and cache.rejections == 1
        hits = cache.hits
        values, found = batcher.serve_gets([20])
        assert found[0] and values[0] == "new"
        assert cache.hits == hits and plane.get(20) == "new"

    def test_a_put_of_a_resident_key_updates_it_in_place(self):
        batcher, plane = full_batcher()
        cache = batcher.cache
        batcher.serve_puts([2], ["fresh"])
        assert cache.peek(2) == "fresh" and plane.get(2) == "fresh"
        assert len(cache) == 4
        assert cache.evictions == 0 and cache.rejections == 0
        hits = cache.hits
        values, found = batcher.serve_gets([2])
        assert values[0] == "fresh" and cache.hits == hits + 1

    def test_a_uniform_stream_evicts_a_small_share_of_its_misses(self):
        # 360 batches of 180 uniform reads, 12 deletes and 64 puts (the
        # deleted keys restored, then 52 overwrites) through a full
        # 4,096-entry cache over 65,536 stored keys.  Installing every
        # found miss and every put evicted more entries than the stream
        # missed; the doorkeeper admits a key only on its second miss.
        rng = np.random.default_rng(30)
        universe = 1 << 16
        plane = build_plane()
        plane.put_many(list(range(universe)), list(range(universe)))
        cache = HotKeyCache(4_096)
        batcher = MicroBatcher(plane, cache=cache)
        batcher.serve_gets(rng.choice(universe, 4_096, replace=False).tolist())
        assert len(cache) == 4_096
        for __ in range(360):
            deletes = rng.integers(0, universe, 12).tolist()
            puts = deletes + rng.integers(0, universe, 52).tolist()
            batcher.serve(rng.integers(0, universe, 180).tolist(), deletes, puts, puts)
        assert cache.misses > 50_000
        assert cache.evictions <= 0.05 * cache.misses


class TestBatchSemantics:
    def test_reads_observe_pre_batch_state(self):
        # A get, a delete and a put of the SAME key in one batch: the
        # get must see the pre-batch value, the delete the pre-batch
        # entry, and the put must win the final state.
        batcher, plane = build_batcher()
        plane.put("k", "before")
        batch = [
            Request("put", "k", "after"),
            Request("get", "k"),
            Request("delete", "k"),
        ]
        batcher.dispatch(batch)
        # order of application: gets -> deletes -> puts
        assert plane.get("k") == "after"
        assert batcher.cache.peek("k") == "after"

    def test_dispatch_resolves_metrics(self):
        batcher, plane = build_batcher()
        plane.put("k", "v")
        batcher.dispatch([Request("get", "k"), Request("put", "j", 1)])
        assert batcher.metrics.requests == 2
        assert batcher.metrics.batches == 1

    def test_cancelled_future_is_skipped_and_batch_mates_resolve(self):
        async def scenario():
            batcher, plane = build_batcher()
            plane.put_many(["a", "b"], [1, 2])
            futures = [
                batcher.submit("get", "a"),
                batcher.submit("get", "b"),
                batcher.submit("delete", "a"),
                batcher.submit("delete", "b"),
                batcher.submit("put", "c", 3),
                batcher.submit("put", "d", 4),
            ]
            for cancelled in futures[::2]:
                cancelled.cancel()
            assert batcher.drain() == 6
            assert all(future.cancelled() for future in futures[::2])
            assert futures[1].result() == (True, 2)
            assert futures[3].result() is True
            assert futures[5].result() == plane.router.route("d")

        asyncio.run(scenario())

    def test_flush_takes_at_most_max_batch(self):
        batcher, __ = build_batcher(max_batch=4)
        for index in range(10):
            batcher._queue.append(Request("put", index, index))
        assert batcher.flush() == 4
        assert batcher.pending == 6
        assert batcher.drain() == 6
        assert batcher.pending == 0


class TestOnePass:
    """A micro-batch hashes and routes once and calls no store method."""

    @pytest.fixture(params=["router", "cluster"])
    def stack(self, request, monkeypatch):
        fleet = ["srv-{}".format(index) for index in range(6)]
        if request.param == "router":
            router = Router(make_table("consistent", seed=3))
        else:
            router = ClusterRouter("consistent", n_shards=3, seed=3)
        router.sync(fleet)
        plane = DataPlane(router)
        plane.put_many(list(range(100)), list(range(100)))
        batcher = MicroBatcher(plane, cache=HotKeyCache(64))
        hashed = []
        for shard in router.shards:
            table = shard.table
            words_of_keys = table.words_of_keys

            def counted(keys, words_of_keys=words_of_keys):
                hashed.append(len(keys))
                return words_of_keys(keys)

            monkeypatch.setattr(table, "words_of_keys", counted)
        return batcher, plane, hashed

    @staticmethod
    def mixed_batch():
        return (
            [Request("get", key) for key in range(0, 60, 2)]
            + [Request("delete", key) for key in (1, 3, 5, "ghost")]
            + [Request("put", key, -key) for key in (3, 7, 150, 151)]
        )

    @pytest.mark.parametrize("avoid", [False, True], ids=["healthy", "avoided"])
    def test_misses_and_writes_hash_once(self, stack, avoid):
        batcher, plane, hashed = stack
        if avoid:
            plane.router.avoid(plane.router.assign(0))
        batcher.dispatch(self.mixed_batch())
        assert hashed == [30 + 4 + 4]
        hashed.clear()
        batcher.dispatch([Request("put", "fresh", 1)])
        assert hashed == [1]

    def test_all_hit_batch_never_routes(self, stack):
        batcher, __, hashed = stack
        batcher.serve_gets(list(range(10)))
        hashed.clear()
        batcher.dispatch([Request("get", key) for key in range(10)])
        assert hashed == []
        assert batcher.cache.hits == 10

    def test_dispatch_calls_no_store_method(self, stack, monkeypatch):
        batcher, plane, __ = stack
        called = []
        for name, method in vars(ServerStore).items():
            if inspect.isfunction(method) and name != "__init__":

                def recorded(*args, name=name, method=method, **kwargs):
                    called.append(name)
                    return method(*args, **kwargs)

                monkeypatch.setattr(ServerStore, name, recorded)
        batcher.dispatch(self.mixed_batch())
        assert called == []
        monkeypatch.undo()
        assert plane.get(3) == -3 and plane.get(150) == -150
        assert plane.get(1, None) is None


class TestFlushOrder:
    def test_flush_takes_a_fifo_prefix(self):
        async def scenario():
            batcher, __ = build_batcher(max_batch=3)
            batches = []
            batcher.dispatch = batches.append
            for index in range(5):
                batcher.submit("get", index)
            assert batcher.flush() == 3
            assert batcher.pending == 2
            assert batcher.drain() == 2
            return [[request.key for request in batch] for batch in batches]

        assert asyncio.run(scenario()) == [[0, 1, 2], [3, 4]]

    def test_oldest_request_drives_the_deadline(self):
        async def scenario():
            now = [0.0]
            batcher, __ = build_batcher(
                max_batch=1_000, max_delay=10.0, clock=lambda: now[0]
            )
            old = batcher.submit("get", "old")
            # The old request is long overdue; the new one has 10 s left.
            now[0] = 100.0
            new = batcher.submit("get", "new")
            task = asyncio.get_running_loop().create_task(batcher.run())
            await asyncio.wait_for(asyncio.gather(old, new), timeout=5.0)
            batcher.stop()
            await task

        asyncio.run(scenario())


class TestAsyncLoop:
    def test_flush_on_size(self):
        async def scenario():
            batcher, plane = build_batcher(max_batch=4, max_delay=60.0)
            task = asyncio.get_running_loop().create_task(batcher.run())
            futures = [batcher.submit("put", index, index * 2) for index in range(4)]
            owners = await asyncio.wait_for(asyncio.gather(*futures), timeout=5.0)
            assert len(owners) == 4
            assert plane.get(3) == 6
            batcher.stop()
            await task

        asyncio.run(scenario())

    def test_flush_on_deadline(self):
        async def scenario():
            batcher, plane = build_batcher(max_batch=1_000, max_delay=0.01)
            task = asyncio.get_running_loop().create_task(batcher.run())
            plane.put("k", "v")
            found, value = await asyncio.wait_for(
                batcher.submit("get", "k"), timeout=5.0
            )
            assert found and value == "v"
            batcher.stop()
            await task

        asyncio.run(scenario())

    def test_get_resolution_shape(self):
        async def scenario():
            batcher, plane = build_batcher(max_batch=2, max_delay=0.005)
            task = asyncio.get_running_loop().create_task(batcher.run())
            plane.put("k", "v")
            hit, miss = await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit("get", "k"),
                    batcher.submit("get", "ghost"),
                ),
                timeout=5.0,
            )
            assert hit == (True, "v")
            assert miss == (False, None)
            deleted = await asyncio.wait_for(batcher.submit("delete", "k"), timeout=5.0)
            assert deleted is True
            batcher.stop()
            await task

        asyncio.run(scenario())

    def test_run_twice_rejected(self):
        async def scenario():
            batcher, __ = build_batcher()
            task = asyncio.get_running_loop().create_task(batcher.run())
            await asyncio.sleep(0)  # let run() start
            with pytest.raises(RuntimeError, match="already running"):
                await batcher.run()
            batcher.stop()
            await task

        asyncio.run(scenario())

    def test_no_lost_wake_ups_under_random_arrivals(self):
        # Producers arrive at random while the loop parks on an empty
        # queue, waits out deadlines and flushes full batches: a missed
        # wake-up leaves some future unresolved past the timeout.
        rng = random.Random(20221014)
        producers, requests = 300, 6
        delays = [
            [rng.choice((0.0, rng.random() * 0.002)) for __ in range(requests)]
            for __ in range(producers)
        ]

        async def scenario():
            batcher, __ = build_batcher(max_batch=8, max_delay=0.0005)
            task = asyncio.get_running_loop().create_task(batcher.run())

            async def producer(index):
                for step, delay in enumerate(delays[index]):
                    await asyncio.sleep(delay)
                    op = ("put", "get", "delete")[(index + step) % 3]
                    await batcher.submit(op, "k{}-{}".format(index % 50, step), step)

            await asyncio.wait_for(
                asyncio.gather(*(producer(index) for index in range(producers))),
                timeout=30.0,
            )
            assert batcher.pending == 0
            assert batcher.metrics.requests == producers * requests
            batcher.stop()
            await task

        asyncio.run(scenario())
