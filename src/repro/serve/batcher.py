"""Request coalescing: single-key futures in, kernel-sized batches out.

The bench shows batched routing is 10-100x the scalar path, but clients
issue single-key operations.  The :class:`MicroBatcher` converts one
into the other: concurrent get/put/delete requests enqueue onto a FIFO
``deque`` and are flushed as one micro-batch when either the batch
fills (``max_batch``, default 256 keys) or the oldest request's
deadline passes (``max_delay``, default 1 ms) -- the classic
size-or-deadline coalescing loop.

A flushed batch costs one cache probe and at most one data-plane call.
The :class:`~repro.serve.cache.HotKeyCache` absorbs hot reads first;
the misses, deletes and puts then go to the plane together, as one
:meth:`~repro.store.DataPlane.serve_batch`: one hashing and routing
pass over their union (reads fail over around avoided servers, writes
keep their assigned owner) and one pass over the store dicts, with no
per-server call.  A batch of cache hits never routes.

Batch visibility semantics (what a mixed batch observes) are fixed and
documented: **reads observe the pre-batch state**; then deletes apply;
then puts apply (each refreshes its cached entry, or fills free room;
into a full cache it goes to the store only).  A write becomes
visible to reads from the *next* batch onward.  Requests never reorder
across batches -- the queue is FIFO and a flush takes a prefix.  A
batch whose dispatch raises fails alone: its unresolved futures get the
exception (or, when none is left, the event loop's exception handler
does) and the flush loop goes on serving.

The dispatch core (:meth:`MicroBatcher.serve`, with
:meth:`~MicroBatcher.serve_gets` and friends as its one-op forms) is
synchronous and loop-free to drive -- the emulator's open-loop scenario
and the perf harness call it directly; the asyncio layer
(:meth:`MicroBatcher.submit` + :meth:`MicroBatcher.run`) wraps the same
core with futures and the flush timer.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque, namedtuple
from itertools import compress, repeat, starmap
from operator import itemgetter
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from ..hashfn import Key
from .cache import HotKeyCache
from .metrics import ServingMetrics

__all__ = ["Request", "MicroBatcher"]

#: The empty results of an op class a batch does not hold; read-only,
#: so every such batch shares them.
_NO_VALUES = np.empty(0, dtype=object)
_NO_VALUES.flags.writeable = False
_NO_MASK = np.zeros(0, dtype=bool)
_NO_MASK.flags.writeable = False

#: Default flush-on-size threshold (keys per micro-batch).
DEFAULT_MAX_BATCH = 256

#: Default flush-on-deadline threshold (seconds the oldest request may
#: wait before the batch is dispatched regardless of fill).
DEFAULT_MAX_DELAY = 0.001

_OPS = ("get", "put", "delete")

#: C-level field getters for mapping over a batch of :class:`Request`.
_OP, _KEY, _VALUE, _FUTURE, _ENQUEUED = map(itemgetter, range(5))

#: Runs an iterator to its end in C, keeping nothing.
_consume = deque(maxlen=0).extend


def _unknown_op(op: str) -> ValueError:
    return ValueError("unknown op {!r}; expected one of {}".format(op, _OPS))


class Request(namedtuple("Request", "op key value future enqueued_at")):
    """One enqueued single-key operation awaiting its micro-batch.

    A tuple: a saturated front-end builds one per request, and
    :meth:`MicroBatcher.submit` (which has validated ``op`` already)
    builds it with ``tuple.__new__``, skipping this constructor's check.
    Not a plain tuple: CPython takes those from its tuple free list,
    which the cyclic collector's allocation count never sees, and with
    plain tuples the request path ran a generation-0 collection about
    once per thousand requests (``benchmarks/perf/test_request_path_gc.py``).
    """

    __slots__ = ()

    def __new__(
        cls,
        op: str,
        key: Key,
        value: Any = None,
        future: Optional["asyncio.Future"] = None,
        enqueued_at: float = 0.0,
    ):
        if op not in _OPS:
            raise _unknown_op(op)
        return tuple.__new__(cls, (op, key, value, future, enqueued_at))


def _resolve(futures, results) -> None:
    """Resolve each live future; a cancelled one is skipped."""
    for future, result in zip(futures, results):
        if future is not None and not future.done():
            future.set_result(result)


def _report(error: Exception) -> None:
    """Surface a dispatch error that no future of its batch received."""
    try:
        loop = asyncio.get_running_loop()
    except RuntimeError:
        raise error from None
    loop.call_exception_handler(
        {"message": "micro-batch dispatch failed", "exception": error}
    )


class MicroBatcher:
    """Size-or-deadline coalescing over a routed data plane."""

    def __init__(
        self,
        plane,
        cache: Optional[HotKeyCache] = None,
        metrics: Optional[ServingMetrics] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay: float = DEFAULT_MAX_DELAY,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay < 0:
            raise ValueError("max_delay cannot be negative")
        self._plane = plane
        self._cache = cache
        self._metrics = metrics if metrics is not None else ServingMetrics()
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self._clock = clock
        self._queue: deque = deque()
        self._running = False
        self._stop_requested = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._arrival: Optional[asyncio.Event] = None
        self._burst: Optional[asyncio.Event] = None
        # True only while run() awaits ``_arrival`` (empty queue) or
        # ``_burst`` (a deadline), so submit() sets an event at most
        # once per wait instead of once per request.
        self._parked = False
        self._timing = False

    # -- introspection ----------------------------------------------------

    @property
    def plane(self):
        return self._plane

    @property
    def cache(self) -> Optional[HotKeyCache]:
        return self._cache

    @property
    def metrics(self) -> ServingMetrics:
        return self._metrics

    @property
    def pending(self) -> int:
        """Requests enqueued but not yet flushed."""
        return len(self._queue)

    # -- synchronous dispatch core -----------------------------------------

    def serve(
        self,
        gets: Sequence[Key],
        deletes: Sequence[Key] = (),
        puts: Sequence[Key] = (),
        values: Sequence[Any] = (),
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Serve one mixed batch: ``(read_values, found, deleted, owners)``.

        The whole read batch probes the cache in one
        :meth:`~repro.serve.cache.HotKeyCache.get_many`; the misses,
        deletes and puts then take one
        :meth:`~repro.store.DataPlane.serve_batch` -- one routing pass
        and one store pass, skipped when there is nothing to route --
        and the cache follows in one bulk call each: the found misses
        go to :meth:`~repro.serve.cache.HotKeyCache.admit_many`, removed
        keys are invalidated and the puts go to
        :meth:`~repro.serve.cache.HotKeyCache.write_many`, so an install
        that would evict must be earned.
        Results align to ``gets``, ``gets``, ``deletes`` and ``puts``
        (the plane's shapes); a missing read is ``None`` with ``found``
        false.
        """
        cache = self._cache
        probed = cache is not None and len(gets) > 0
        if probed:
            read_values, found = cache.get_many(gets)
            missing = ~found
            miss_positions = np.flatnonzero(missing)
            misses = len(miss_positions)
        else:
            misses = len(gets)
        if len(gets):
            self._metrics.observe_cache(hits=len(gets) - misses, misses=misses)
        if not (misses or len(deletes) or len(puts)):
            # All hits, or nothing at all: nothing to route.
            if not probed:
                return _NO_VALUES, _NO_MASK, _NO_MASK, _NO_VALUES
            return read_values, found, _NO_MASK, _NO_VALUES
        # With some hits, only the misses route and their answers are
        # scattered back; a batch whose reads all missed routes them whole.
        partial = probed and misses < len(gets)
        if partial:
            missed = list(compress(gets, missing.tolist()))
        else:
            missed = gets
        fetched, present, deleted, owners = self._plane.serve_batch(
            missed, deletes, puts, values
        )
        if partial:
            read_values[miss_positions] = fetched
            found[miss_positions] = present
        else:
            read_values, found = fetched, present
        if probed and misses:
            cache.admit_many(missed, fetched, present)
        if cache is not None:
            if len(deletes):
                removed = np.flatnonzero(deleted)
                if len(removed):
                    cache.invalidate_many(
                        [deletes[position] for position in removed.tolist()]
                    )
            if len(puts):
                cache.write_many(puts, values)
        return read_values, found, deleted, owners

    def serve_gets(self, keys: Sequence[Key]) -> Tuple[np.ndarray, np.ndarray]:
        """Serve a read batch (cache first); returns ``(values, found)``."""
        values, found, __, __ = self.serve(keys)
        return values, found

    def serve_puts(self, keys: Sequence[Key], values: Sequence[Any]) -> np.ndarray:
        """Serve a write batch (around a full cache); returns owner ids."""
        return self.serve((), puts=keys, values=values)[3]

    def serve_deletes(self, keys: Sequence[Key]) -> np.ndarray:
        """Serve a delete batch; returns a per-key deleted mask."""
        return self.serve((), deletes=keys)[2]

    def dispatch(self, batch: Sequence[Request]) -> None:
        """Serve one flushed micro-batch and resolve its futures.

        The batch splits by op in C: one ``map`` reads every op and one
        ``list.count`` finds an all-get batch, which is served whole; a
        mixed batch is dealt into its op classes in one ``list.append``
        sweep.  :meth:`serve` serves all three op classes at once, in
        the documented order: every read observes the pre-batch state,
        then deletes apply, then puts.  Futures resolve in one
        slot-aligned loop per op (a cancelled future is skipped; its
        batch-mates still resolve), and the whole batch's latencies are
        one vectorized subtract into
        :meth:`~repro.serve.metrics.ServingMetrics.observe_latencies`.
        """
        if not batch:
            return
        started = self._clock()
        ops = list(map(_OP, batch))
        if ops.count("get") == len(ops):
            gets, deletes, puts = batch, (), ()
        else:
            gets, deletes, puts = [], [], []
            classes = {"get": gets, "delete": deletes, "put": puts}
            _consume(map(list.append, map(classes.__getitem__, ops), batch))
        values, found, deleted, owners = self.serve(
            list(map(_KEY, gets)),
            list(map(_KEY, deletes)),
            list(map(_KEY, puts)),
            list(map(_VALUE, puts)),
        )
        if gets:
            _resolve(map(_FUTURE, gets), zip(found.tolist(), values.tolist()))
        if deletes:
            _resolve(map(_FUTURE, deletes), deleted.tolist())
        if puts:
            _resolve(map(_FUTURE, puts), owners.tolist())
        now = self._clock()
        self._metrics.observe_ops(gets=len(gets), puts=len(puts), deletes=len(deletes))
        self._metrics.observe_batch(len(batch), busy_seconds=now - started)
        enqueued = np.fromiter(
            map(_ENQUEUED, batch), dtype=np.float64, count=len(batch)
        )
        self._metrics.observe_latencies(now - enqueued)

    def flush(self) -> int:
        """Dispatch one micro-batch, the queue's FIFO prefix; returns its size.

        A batch whose dispatch raises (a key type the hash rejects, say)
        fails as a whole: every future it has not resolved yet gets the
        exception, and the queue behind it is served as usual.  An
        error no future receives (one raised after the batch resolved)
        goes to the running event loop's exception handler, or is
        raised when no loop runs.
        """
        queue = self._queue
        count = min(self.max_batch, len(queue))
        batch = list(starmap(queue.popleft, repeat((), count)))
        try:
            self.dispatch(batch)
        except Exception as error:
            unresolved = [
                future
                for future in map(_FUTURE, batch)
                if future is not None and not future.done()
            ]
            for future in unresolved:
                future.set_exception(error)
            if not unresolved:
                _report(error)
        return len(batch)

    def drain(self) -> int:
        """Flush until the queue is empty; returns requests dispatched."""
        dispatched = 0
        while self._queue:
            dispatched += self.flush()
        return dispatched

    # -- asyncio layer -----------------------------------------------------

    def submit(self, op: str, key: Key, value: Any = None) -> "asyncio.Future":
        """Enqueue one operation now; the future resolves at batch dispatch.

        Must be called on the loop that runs :meth:`run` while it runs,
        or from any running event loop while none does (outside one it
        raises ``RuntimeError``).  An unknown ``op`` raises
        ``ValueError`` and enqueues nothing.  Resolution values:
        ``get`` -> ``(found, value)``, ``put`` -> owning server id,
        ``delete`` -> deleted bool.
        """
        if op not in _OPS:
            raise _unknown_op(op)
        # The flush loop's own loop, recorded once per run(): on CPython
        # 3.10-3.11 ``get_running_loop()`` makes a getpid() syscall.
        loop = self._loop
        if loop is None:
            loop = asyncio.get_running_loop()
        # What the default loop's ``create_future()`` builds, minus its
        # Python frame: this line runs once per request.
        future = asyncio.Future(loop=loop)
        queue = self._queue
        queue.append(tuple.__new__(Request, (op, key, value, future, self._clock())))
        if self._parked:
            self._parked = False
            self._arrival.set()
        elif self._timing and len(queue) >= self.max_batch:
            self._timing = False
            self._burst.set()
        return future

    async def run(self) -> None:
        """The flush loop: dispatch on size or deadline until stopped."""
        if self._running:
            raise RuntimeError("batcher is already running")
        self._running = True
        self._loop = asyncio.get_running_loop()
        self._arrival = asyncio.Event()
        self._burst = asyncio.Event()
        queue = self._queue
        try:
            # ``_stop_requested`` covers a stop() issued between task
            # creation and the loop's first iteration, which a bare
            # ``_running`` flag would lose.
            while self._running and not self._stop_requested:
                if not queue:
                    self._arrival.clear()
                    self._parked = True
                    await self._arrival.wait()
                    continue
                deadline = queue[0].enqueued_at + self.max_delay
                while self._running and len(queue) < self.max_batch:
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        break
                    self._burst.clear()
                    self._timing = True
                    try:
                        await asyncio.wait_for(self._burst.wait(), timeout=remaining)
                    except asyncio.TimeoutError:
                        break
                    finally:
                        self._timing = False
                self.flush()
        finally:
            self._running = False
            self._stop_requested = False
            self._parked = self._timing = False
            self._loop = None
            self._arrival = None
            self._burst = None

    def stop(self) -> None:
        """Ask :meth:`run` to exit after the current flush."""
        self._stop_requested = True
        self._running = False
        if self._arrival is not None:
            self._arrival.set()
        if self._burst is not None:
            self._burst.set()
