"""Span tracing from outside the program, and the per-layer metrics.

The :class:`Tracer` wraps the public calls of each layer -- on the
instances the benchmark built, or on the class where the program creates
instances itself (``ServerStore``, ``MigrationExecutor``,
``EpochInvalidator``, ``FaultInjector``) -- and records one span per call
while a traced window is open.  Nothing under ``src/`` is edited; every
patch is undone by :meth:`Tracer.uninstall`.

A span is ``(name, start, end, parent, rid, count)``: ``parent`` is the
enclosing traced call (the layer that caused it), ``rid`` the request ID
for per-request spans (``client.request``, ``serve.submit``) and -1 for
batch-level spans, ``count`` the keys the call carried.  A batch-level
span serves many requests; the per-request table (``req_rid``,
``req_enqueued``, ``req_batch``) links each request to the
``serve.dispatch`` span that served it.  Spans stay in memory and are
written out by :meth:`Tracer.write` when the run ends.

Self time is a span's duration minus the durations of its children.
Every traced call below the client is synchronous, so a span's children
run one after another inside it and never overlap: the sum of their
durations is exactly the part of the interval they cover.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.memory import FaultInjector
from repro.serve import EpochInvalidator
from repro.service.migration import MigrationExecutor
from repro.store.store import ServerStore

#: Per-layer metrics, in report order: ``name -> unit``.
LAYER_METRICS: Dict[str, str] = {
    "client.requests": "count",
    "client.own_s": "s",
    "loop.lag_p99_ms": "ms",
    "loop.lag_max_ms": "ms",
    "gc.pause_s": "s",
    "serve.submit_us": "us",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.batches": "count",
    "serve.batch_fill": "ratio",
    "serve.dispatch_self_us": "us",
    "serve.wake_us": "us",
    "serve.cache.hit_rate": "ratio",
    "serve.cache.get_ns_per_key": "ns/key",
    "serve.cache.put_ns_per_key": "ns/key",
    "serve.cache.invalidated_keys": "count",
    "store.get_self_ns_per_key": "ns/key",
    "store.put_self_ns_per_key": "ns/key",
    "store.delete_self_ns_per_key": "ns/key",
    "store.server_ns_per_key": "ns/key",
    "store.owners_per_call": "count",
    "service.route_self_ns_per_key": "ns/key",
    "service.assign_self_ns_per_key": "ns/key",
    "service.failover_keys": "count",
    "service.flagged_servers": "count",
    "service.epoch_s": "s",
    "service.epoch_moved_keys": "count",
    "service.migration.ticks": "count",
    "service.migration.tick_ms_p50": "ms",
    "service.migration.keys_per_s": "keys/s",
    "service.invalidate_ms": "ms",
    "hashing.words_ns_per_key": "ns/key",
    "hashing.route_ns_per_key": "ns/key",
    "hashing.keys_per_call": "keys",
    "control.ticks": "count",
    "control.tick_s": "s",
    "control.track_s": "s",
    "memory.flipped_bits": "count",
    "p99_ms": "ms",
    "fail_frac": "ratio",
    "rebalance_s": "s",
    "misroute_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Seconds the loop-lag probe asks to sleep.
LAG_PERIOD = 0.001

#: Marks a patched attribute the owner did not define itself (restored
#: by deleting the patch, which re-exposes the inherited one).
_INHERITED = object()

#: The data-plane bulk calls whose children are the per-server stores.
_PLANE_BULK = ("store.get_many", "store.put_many", "store.delete_many")


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


class Tracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.count = array("q")
        self._stack: List[int] = []
        self.active = False
        self.opened_at = self.closed_at = 0.0
        #: The request the client is about to submit (set by the caller
        #: just before it enters the front-end).
        self.current_rid = -1
        self._rid_of: Dict[object, int] = {}
        # Per-request spans (``serve.submit``, ``client.request``) have no
        # parent and no children, so they are kept as three lean columns
        # each and joined to the span table in ``columns()``.
        self._submit_id = self._name_id("serve.submit")
        self._request_id = self._name_id("client.request")
        self.submits = (array("q"), array("d"), array("d"))
        self.requests = (array("q"), array("d"), array("d"))
        self.req_rid = array("q")
        self.req_enqueued = array("d")
        self.req_batch = array("q")
        self.cache_gets = 0
        self.cache_hits = 0
        self.failover_keys = 0
        self._watch: Optional[frozenset] = None
        self._committed: Dict[object, int] = {}
        self.lags = array("d")
        self.gc_pause_s = 0.0
        self._gc_started = 0.0
        self._patches: List[Tuple[object, str, object]] = []

    # -- the window ----------------------------------------------------------

    def open_window(self) -> None:
        self.opened_at = time.perf_counter()
        self.active = True

    def close_window(self) -> None:
        self.active = False
        self.closed_at = time.perf_counter()

    @property
    def window_s(self) -> float:
        return self.closed_at - self.opened_at

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, count: int) -> int:
        stack = self._stack
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.count.append(count)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def request(self, rid: int, started: float, ended: float) -> None:
        """One client request, from its call to the caller resuming."""
        rids, starts, ends = self.requests
        rids.append(rid)
        starts.append(started)
        ends.append(ended)

    def _traced_submit(self, submit):
        rids, starts, ends = self.submits
        rid_of = self._rid_of
        clock = time.perf_counter

        @functools.wraps(submit)
        def traced(op, key, value=None):
            if not self.active:
                return submit(op, key, value)
            started = clock()
            future = submit(op, key, value)
            ends.append(clock())
            starts.append(started)
            rids.append(self.current_rid)
            rid_of[future] = self.current_rid
            return future

        return traced

    async def lag_probe(self, until: float) -> None:
        """Oversleep of a ``LAG_PERIOD`` sleep: how long ready work waited."""
        clock = time.perf_counter
        while clock() < until:
            asked = clock()
            await asyncio.sleep(LAG_PERIOD)
            if self.active:
                self.lags.append(clock() - asked - LAG_PERIOD)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self.active:
            self.gc_pause_s += time.perf_counter() - self._gc_started

    # -- patching --------------------------------------------------------------

    def _span(self, name: str, count_arg: Optional[int] = None,
              before: Optional[Callable] = None, after: Optional[Callable] = None):
        """A wrapper factory timing every call as a span called ``name``.

        ``count_arg`` names the positional argument whose length is the
        span's key count; ``before(args)`` runs ahead of the call and
        ``after(index, args, result)`` after the span closed.
        """
        name_id = self._name_id(name)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                if before is not None:
                    before(args)
                count = len(args[count_arg]) if count_arg is not None else 0
                index = self._open(name_id, count)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                if after is not None:
                    after(index, args, result)
                return result

            return traced

        return make

    def _patch(self, owner: object, attribute: str, make) -> None:
        own = vars(owner)
        original = own[attribute] if attribute in own else _INHERITED
        setattr(owner, attribute, make(getattr(owner, attribute)))
        self._patches.append((owner, attribute, original))

    def install(self, frontend, control=None) -> None:
        """Wrap every layer's public calls under ``frontend`` (and ``control``)."""
        plane = frontend.plane
        router = plane.router
        table = router.table
        batcher = frontend.batcher
        span = self._span
        patch = self._patch
        patch(batcher, "submit", self._traced_submit)
        patch(batcher, "dispatch", span("serve.dispatch", 0, after=self._after_dispatch))
        patch(frontend.cache, "get_many", span("serve.cache.get_many", 0, after=self._after_cache_get))
        patch(frontend.cache, "put_many", span("serve.cache.put_many", 0))
        patch(frontend.cache, "invalidate_many", span("serve.cache.invalidate_many", after=self._count_result))
        patch(EpochInvalidator, "on_epoch", span("serve.invalidate"))
        for verb in ("get_many", "put_many", "delete_many"):
            patch(plane, verb, span("store." + verb, 0))
        patch(plane, "track", span("store.track", after=self._count_result))
        for verb in ("get_many", "put_many", "delete_many", "read_many", "evict_many"):
            patch(ServerStore, verb, span("store.server." + verb, 1))
        patch(router, "route_batch", span("service.route_batch", 0, before=lambda args: self._watch_avoided(router)))
        patch(router, "assign_batch", span("service.assign_batch", 0))
        patch(router, "apply", span("service.apply", after=self._after_apply))
        patch(MigrationExecutor, "tick", span("service.migration.tick", after=self._after_migration_tick))
        patch(table, "words_of_keys", span("hashing.words_of_keys", 0))
        patch(table, "lookup_words", span("hashing.lookup_words", 0, after=self._after_lookup_words))
        patch(FaultInjector, "inject", span("memory.inject", after=lambda i, a, r: self._set_count(i, len(r))))
        if control is not None:
            patch(control, "tick", span("control.tick"))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- per-call bookkeeping (after the span closed) -------------------------

    def _set_count(self, index: int, count: int) -> None:
        self.count[index] = count

    def _count_result(self, index, args, result) -> None:
        self.count[index] = int(result)

    def _after_dispatch(self, index, args, result) -> None:
        rid_of = self._rid_of
        for request in args[0]:
            self.req_rid.append(rid_of.pop(request.future, -1))
            self.req_enqueued.append(request.enqueued_at)
            self.req_batch.append(index)

    def _after_cache_get(self, index, args, result) -> None:
        self.cache_gets += len(args[0])
        self.cache_hits += int(np.count_nonzero(result[1]))

    def _watch_avoided(self, router) -> None:
        avoided = router.avoided
        self._watch = avoided if avoided else None

    def _after_lookup_words(self, index, args, owners) -> None:
        # Under a route_batch with servers avoided, the first table call
        # returns the pre-failover owners: count the flagged ones.
        if self._watch is not None:
            watch = self._watch
            self.failover_keys += sum(1 for owner in owners.tolist() if owner in watch)
            self._watch = None

    def _after_apply(self, index, args, result) -> None:
        self.count[index] = result.record.probes_moved if result is not None else 0

    def _after_migration_tick(self, index, args, status) -> None:
        executor = args[0]
        self.count[index] = status.committed - self._committed.get(executor, 0)
        self._committed[executor] = status.committed

    # -- output ------------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """Every span as columns; the batch-level spans keep their indices."""
        per_request = [(self._submit_id, self.submits), (self._request_id, self.requests)]
        extra = sum(len(rids) for __, (rids, __, __) in per_request)

        def joined(column, dtype, pick):
            return np.concatenate(
                [np.frombuffer(column, dtype=dtype)]
                + [pick(name_id, part) for name_id, part in per_request]
            )

        return {
            "names": np.asarray(self.names),
            "name": joined(self.name, np.int32, lambda i, p: np.full(len(p[0]), i, np.int32)),
            "start": joined(self.start, np.float64, lambda i, p: np.frombuffer(p[1])),
            "end": joined(self.end, np.float64, lambda i, p: np.frombuffer(p[2])),
            "parent": np.concatenate(
                [np.frombuffer(self.parent, dtype=np.int64), np.full(extra, -1, np.int64)]
            ),
            "rid": np.concatenate(
                [np.full(len(self.name), -1, np.int64)]
                + [np.frombuffer(rids, dtype=np.int64) for __, (rids, __, __) in per_request]
            ),
            "count": np.concatenate(
                [np.frombuffer(self.count, dtype=np.int64), np.ones(extra, np.int64)]
            ),
            "req_rid": np.frombuffer(self.req_rid, dtype=np.int64),
            "req_enqueued": np.frombuffer(self.req_enqueued, dtype=np.float64),
            "req_batch": np.frombuffer(self.req_batch, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span and the per-request table as one ``.npz``."""
        np.savez(path, **self.columns())

    def layer_metrics(self, max_batch: int, client_own_s: float,
                      requests: int) -> Tuple[Dict[str, float], Dict[str, float]]:
        """The per-layer metrics this tracer can derive, plus self time by layer.

        Returns ``(metrics, self_share)``; ``self_share`` maps each layer
        prefix to its self time as a share of the traced window.
        """
        columns = self.columns()
        name = columns["name"]
        start, end, parent = columns["start"], columns["end"], columns["parent"]
        count = columns["count"].astype(np.float64)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        own = duration - child
        ids = {label: index for index, label in enumerate(self.names)}

        def of(label):
            return name == ids[label] if label in ids else np.zeros(len(name), dtype=bool)

        def child_of(label):
            parents = of(label)
            return nested & parents[np.maximum(parent, 0)]

        def ns_per_key(mask, times):
            return _per(times[mask].sum(), count[mask].sum(), 1e9)

        dispatch = of("serve.dispatch")
        plane_bulk = of(_PLANE_BULK[0]) | of(_PLANE_BULK[1]) | of(_PLANE_BULK[2])
        server = np.zeros(len(name), dtype=bool)
        for label in self.names:
            if label.startswith("store.server."):
                server |= of(label)
        plane_server = server & nested & plane_bulk[np.maximum(parent, 0)]
        words = of("hashing.words_of_keys")
        lookups = of("hashing.lookup_words")
        ticks = of("service.migration.tick")
        control_ticks = of("control.tick")

        req_batch = columns["req_batch"]
        queue_wait = start[req_batch] - columns["req_enqueued"]
        wake = np.empty(0)
        client = of("client.request")
        client_rid = columns["rid"][client]
        if client_rid.size and req_batch.size:
            order = np.argsort(client_rid)
            sorted_rid = client_rid[order]
            slot = np.minimum(np.searchsorted(sorted_rid, columns["req_rid"]), sorted_rid.size - 1)
            matched = sorted_rid[slot] == columns["req_rid"]
            resumed = end[client][order][slot[matched]]
            wake = resumed - end[req_batch[matched]]
        lags = np.frombuffer(self.lags, dtype=np.float64)

        def pct(values, q, scale):
            return float(np.percentile(values, q)) * scale if values.size else 0.0

        window = self.window_s
        metrics = {
            "client.requests": requests,
            "client.own_s": client_own_s,
            "loop.lag_p99_ms": pct(lags, 99, 1e3),
            "loop.lag_max_ms": float(lags.max()) * 1e3 if lags.size else 0.0,
            "gc.pause_s": self.gc_pause_s,
            "serve.submit_us": _per(duration[of("serve.submit")].sum(), of("serve.submit").sum(), 1e6),
            "serve.queue_wait_p50_ms": pct(queue_wait, 50, 1e3),
            "serve.queue_wait_p99_ms": pct(queue_wait, 99, 1e3),
            "serve.batches": int(dispatch.sum()),
            "serve.batch_fill": _per(count[dispatch].mean() if dispatch.any() else 0.0, max_batch),
            "serve.dispatch_self_us": _per(own[dispatch].sum(), count[dispatch].sum(), 1e6),
            "serve.wake_us": float(wake.mean()) * 1e6 if wake.size else 0.0,
            "serve.cache.hit_rate": _per(self.cache_hits, self.cache_gets),
            "serve.cache.get_ns_per_key": ns_per_key(of("serve.cache.get_many"), duration),
            "serve.cache.put_ns_per_key": ns_per_key(of("serve.cache.put_many"), duration),
            "serve.cache.invalidated_keys": int(
                count[of("serve.cache.invalidate_many") & child_of("serve.invalidate")].sum()
            ),
            "store.get_self_ns_per_key": ns_per_key(of("store.get_many"), own),
            "store.put_self_ns_per_key": ns_per_key(of("store.put_many"), own),
            "store.delete_self_ns_per_key": ns_per_key(of("store.delete_many"), own),
            "store.server_ns_per_key": ns_per_key(plane_server, duration),
            "store.owners_per_call": _per(plane_server.sum(), plane_bulk.sum()),
            "service.route_self_ns_per_key": ns_per_key(of("service.route_batch"), own),
            "service.assign_self_ns_per_key": ns_per_key(of("service.assign_batch"), own),
            "service.failover_keys": self.failover_keys,
            "service.epoch_s": float(duration[of("service.apply")].sum()),
            "service.epoch_moved_keys": int(count[of("service.apply")].sum()),
            "service.migration.ticks": int(ticks.sum()),
            "service.migration.tick_ms_p50": pct(duration[ticks], 50, 1e3),
            "service.migration.keys_per_s": _per(count[ticks].sum(), duration[ticks].sum()),
            "service.invalidate_ms": float(duration[of("serve.invalidate")].sum()) * 1e3,
            "hashing.words_ns_per_key": ns_per_key(words, duration),
            "hashing.route_ns_per_key": ns_per_key(lookups, duration),
            "hashing.keys_per_call": _per(count[lookups].sum(), lookups.sum()),
            "control.ticks": int(control_ticks.sum()),
            "control.tick_s": float(duration[control_ticks].max()) if control_ticks.any() else 0.0,
            "control.track_s": float(duration[of("store.track") & child_of("control.tick")].sum()),
            "memory.flipped_bits": int(count[of("memory.inject")].sum()),
        }
        layer_spans = ~client
        top_level = layer_spans & ~nested
        metrics["trace.coverage"] = _per(duration[top_level].sum() + client_own_s, window)
        prefix = np.asarray([label.split(".")[0] for label in self.names])
        self_share = {}
        if len(name):
            layer_of = prefix[name]
            for layer in np.unique(layer_of[layer_spans]):
                self_share[str(layer)] = _per(own[layer_spans & (layer_of == layer)].sum(), window)
        self_share["client"] = _per(client_own_s, window)
        return metrics, self_share
