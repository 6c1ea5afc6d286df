"""The async serving tier: micro-batched front-end over the data plane.

Clients issue single-key operations; the routed kernels underneath are
10-100x faster in batch.  This package closes that gap with three
cooperating pieces:

- :class:`~repro.serve.batcher.MicroBatcher` -- coalesces concurrent
  get/put/delete requests into micro-batches (flush on size or
  deadline); a batch's cache misses, deletes and puts take one
  :meth:`~repro.store.DataPlane.serve_batch` (one routing pass and one
  store pass), with fixed batch visibility semantics (reads observe
  pre-batch state, then deletes, then puts).
- :class:`~repro.serve.cache.HotKeyCache` -- a bounded LRU absorbing
  the Zipfian hot set (an install that would evict must be earned by a
  second miss; a put never evicts), kept exact across membership churn by
  :class:`~repro.serve.frontend.EpochInvalidator`, which evicts
  precisely the keys each epoch's migration plan names instead of
  flushing.
- :class:`~repro.serve.metrics.ServingMetrics` -- the observability
  surface: p50/p99 latency, batch-size histogram, cache hit rate,
  saturation throughput.

:class:`~repro.serve.frontend.ServingFrontend` assembles them behind an
asyncio ``get``/``put``/``delete`` API; the synchronous dispatch core is
exposed for the emulator's open-loop scenario and the perf harness.
"""

from .batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY,
    MicroBatcher,
    Request,
)
from .cache import DEFAULT_CAPACITY, HotKeyCache
from .frontend import EpochInvalidator, ServingFrontend
from .metrics import ServingMetrics, ServingSnapshot

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_DELAY",
    "EpochInvalidator",
    "HotKeyCache",
    "MicroBatcher",
    "Request",
    "ServingFrontend",
    "ServingMetrics",
    "ServingSnapshot",
]
