"""The serving front-end: async facade + epoch-exact cache invalidation.

Two pieces live here.  :class:`EpochInvalidator` is a
:class:`~repro.service.router.RouterObserver` binding a
:class:`~repro.serve.cache.HotKeyCache` to a router: when an epoch
closes, the router's :class:`~repro.service.router.EpochResult` carries
the migration plan naming exactly the tracked keys the epoch rerouted,
and the invalidator evicts precisely those keys.  Only when the source
router has *no* tracked probe population (``probe_keys is None`` -- the
remapped set is unknowable) does it fall back to a blanket flush.

The exactness contract: invalidation is exact for every key in the
router's probe population.  The serving tier keeps the population
current by running behind a :class:`~repro.control.ControlLoop`, whose
tick calls :meth:`~repro.store.DataPlane.track` before applying any
membership change -- so every stored (hence cacheable) key is tracked
when an epoch closes.

:class:`ServingFrontend` assembles the whole tier -- data plane,
hot-key cache, micro-batcher, metrics -- wires one invalidator up per
router *shard* (each shard closes its own epochs with shard-local plans;
a plain :class:`~repro.service.router.Router` is its own one shard), and
exposes the client-facing async ``get``/``put``/``delete``.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, Optional, Tuple

from ..hashfn import Key
from ..service.router import EpochResult, RouterObserver
from .batcher import DEFAULT_MAX_BATCH, DEFAULT_MAX_DELAY, MicroBatcher
from .cache import DEFAULT_CAPACITY, HotKeyCache
from .metrics import ServingMetrics

__all__ = ["EpochInvalidator", "ServingFrontend"]


class EpochInvalidator(RouterObserver):
    """Evicts exactly the keys an epoch remapped from a hot-key cache."""

    def __init__(
        self,
        cache: HotKeyCache,
        source,
        metrics: Optional[ServingMetrics] = None,
    ):
        #: ``source`` is the router whose epochs this observer receives
        #: (a shard router, for a cluster) -- consulted for whether a
        #: probe population was tracked when the epoch closed.
        self._cache = cache
        self._source = source
        self._metrics = metrics

    @property
    def cache(self) -> HotKeyCache:
        return self._cache

    def on_epoch(self, result: EpochResult) -> None:
        if self._source.probe_keys is None:
            # No probe population: the remapped-key set is unknowable,
            # so correctness demands the blanket flush.
            dropped = self._cache.flush()
            if self._metrics is not None:
                self._metrics.observe_invalidation(dropped, flush=True)
            return
        # Intersect the plan's moved keys with the cached key set
        # *before* evicting: a plan names every rerouted tracked key,
        # but the cache holds at most ``capacity`` of them, so probing
        # the cache per moved key is O(plan) dict traffic for a handful
        # of hits.  The frozenset intersection is one C-level sweep per
        # batch and the eviction loop then touches only actual
        # residents.  A plan never repeats a key across batches, so the
        # eviction count stays exact.
        cached = self._cache.key_set()
        evicted = 0
        for batch in result.plan.batches:
            hits = cached.intersection(batch.keys)
            if hits:
                evicted += self._cache.invalidate_many(hits)
        if self._metrics is not None:
            self._metrics.observe_invalidation(evicted)


class ServingFrontend:
    """The assembled serving tier behind an async get/put/delete API."""

    def __init__(
        self,
        plane,
        cache: Optional[HotKeyCache] = None,
        metrics: Optional[ServingMetrics] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay: float = DEFAULT_MAX_DELAY,
        cache_capacity: int = DEFAULT_CAPACITY,
    ):
        self._plane = plane
        self._cache = cache if cache is not None else HotKeyCache(cache_capacity)
        self._metrics = metrics if metrics is not None else ServingMetrics()
        self._batcher = MicroBatcher(
            plane,
            cache=self._cache,
            metrics=self._metrics,
            max_batch=max_batch,
            max_delay=max_delay,
        )
        #: One per router shard, in shard order.
        self._invalidators: List[EpochInvalidator] = []
        self._task: Optional["asyncio.Task"] = None
        self._subscribe_invalidators()

    def _subscribe_invalidators(self) -> None:
        # Each shard closes its own epochs with a shard-local plan, so
        # each gets its own invalidator bound to that shard.
        for source in self._plane.router.shards:
            invalidator = EpochInvalidator(self._cache, source, metrics=self._metrics)
            source.subscribe(invalidator)
            self._invalidators.append(invalidator)

    # -- introspection ----------------------------------------------------

    @property
    def plane(self):
        return self._plane

    @property
    def cache(self) -> HotKeyCache:
        return self._cache

    @property
    def metrics(self) -> ServingMetrics:
        return self._metrics

    @property
    def batcher(self) -> MicroBatcher:
        return self._batcher

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "asyncio.Task":
        """Launch the batcher's flush loop on the running event loop."""
        if self.running:
            raise RuntimeError("frontend is already running")
        self._task = asyncio.get_running_loop().create_task(self._batcher.run())
        return self._task

    async def stop(self) -> None:
        """Stop the flush loop, then serve everything still pending.

        The drain runs after the loop exits, so a request submitted while
        ``stop()`` awaits the loop is served before it returns.
        """
        if self._task is not None:
            self._batcher.stop()
            await self._task
            self._task = None
        self._batcher.drain()

    def close(self) -> None:
        """Detach the epoch invalidators from the router's current shards.

        A shard restored in place carries its predecessor's invalidator.
        """
        for shard, invalidator in zip(self._plane.router.shards, self._invalidators):
            shard.unsubscribe(invalidator)
        self._invalidators.clear()

    # -- client API --------------------------------------------------------
    # ``lookup``/``put``/``delete`` enqueue when called and return the
    # future to await.  They read ``self._batcher.submit`` on every call,
    # so a wrapper patched onto the batcher instance takes effect.

    async def get(self, key: Key, default: Any = None) -> Any:
        """The value for ``key`` (or ``default``), via the micro-batch."""
        found, value = await self._batcher.submit("get", key)
        return value if found else default

    def lookup(self, key: Key) -> "asyncio.Future[Tuple[bool, Any]]":
        """Like :meth:`get` but resolves to ``(found, value)`` explicitly."""
        return self._batcher.submit("get", key)

    def put(self, key: Key, value: Any) -> "asyncio.Future[Key]":
        """Store ``key``; resolves to the owning server id."""
        return self._batcher.submit("put", key, value)

    def delete(self, key: Key) -> "asyncio.Future[bool]":
        """Delete ``key``; resolves to whether it existed."""
        return self._batcher.submit("delete", key)
