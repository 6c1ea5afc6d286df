"""The serving tier's observability surface.

:class:`ServingMetrics` accumulates what the front-end actually did:
request counts per operation, the micro-batch size histogram (how well
the batcher coalesced), cache hits/misses and invalidation work, busy
time (the saturation-throughput denominator) and per-request latency
samples.  :meth:`ServingMetrics.snapshot` condenses everything into a
:class:`ServingSnapshot` with the operator-facing numbers: p50/p99
latency, mean/max batch size, cache hit rate, sustained throughput.

Latency samples live in a preallocated ring holding the newest
``max_samples`` (default 2**20, 8 MB), so a long-running front-end
cannot grow without bound and its percentiles follow current traffic
instead of freezing at the start-up window.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = ["ServingMetrics", "ServingSnapshot"]

#: Default ring size: the newest samples the percentiles are taken over.
DEFAULT_MAX_SAMPLES = 1 << 20


@dataclass(frozen=True)
class ServingSnapshot:
    """One condensed view of a :class:`ServingMetrics` accumulator."""

    requests: int
    gets: int
    puts: int
    deletes: int
    batches: int
    #: Mean and largest flushed micro-batch size (0 when none flushed).
    mean_batch: float
    max_batch: int
    #: ``{bucket_top: count}`` power-of-two batch-size histogram: the
    #: bucket keyed ``2**b`` counts flushes of size in ``(2**(b-1), 2**b]``.
    batch_histogram: Tuple[Tuple[int, int], ...]
    cache_hits: int
    cache_misses: int
    hit_rate: float
    #: Keys evicted by exact epoch invalidation, and blanket flushes
    #: (the safety path taken only when no probe population is tracked).
    invalidated_keys: int
    cache_flushes: int
    p50_ms: float
    p99_ms: float
    #: Requests completed per second of dispatch busy time -- the
    #: saturation throughput of the serving core, independent of how
    #: sparse the offered load was.
    throughput_rps: float

    def describe(self) -> str:
        return (
            "{:,} requests in {:,} batches (mean {:.1f}, max {}): "
            "p50 {:.3f} ms, p99 {:.3f} ms, hit rate {:.1%}, "
            "{:,.0f} req/s saturated".format(
                self.requests,
                self.batches,
                self.mean_batch,
                self.max_batch,
                self.p50_ms,
                self.p99_ms,
                self.hit_rate,
                self.throughput_rps,
            )
        )


class ServingMetrics:
    """Mutable accumulator the batcher, cache and scenario feed."""

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES):
        if max_samples < 1:
            raise ValueError("need room for at least one latency sample")
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_batch = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.invalidated_keys = 0
        self.cache_flushes = 0
        self.busy_seconds = 0.0
        self._batch_buckets: Counter = Counter()
        # Pages are committed as samples arrive, so an idle ring is cheap.
        self._ring = np.empty(int(max_samples), dtype=np.float64)
        self._head = 0
        self._samples = 0

    # -- feeding -----------------------------------------------------------

    @property
    def requests(self) -> int:
        """Total operations observed, across all three verbs."""
        return self.gets + self.puts + self.deletes

    def observe_ops(self, gets: int = 0, puts: int = 0, deletes: int = 0) -> None:
        """Count completed operations."""
        self.gets += int(gets)
        self.puts += int(puts)
        self.deletes += int(deletes)

    def observe_batch(self, size: int, busy_seconds: float = 0.0) -> None:
        """Record one flushed micro-batch and its dispatch time."""
        size = int(size)
        if size <= 0:
            return
        self.batches += 1
        self.batched_requests += size
        self.max_batch = max(self.max_batch, size)
        self.busy_seconds += float(busy_seconds)
        self._batch_buckets[1 << max(0, size - 1).bit_length()] += 1

    def observe_cache(self, hits: int = 0, misses: int = 0) -> None:
        """Count read-path cache outcomes."""
        self.cache_hits += int(hits)
        self.cache_misses += int(misses)

    def observe_invalidation(self, evicted: int, flush: bool = False) -> None:
        """Record epoch-invalidation work (exact eviction or flush)."""
        self.invalidated_keys += int(evicted)
        if flush:
            self.cache_flushes += 1

    def observe_latencies(self, seconds) -> None:
        """Add per-request latency samples (seconds; array or scalar)."""
        ring = self._ring
        size = ring.size
        samples = np.asarray(seconds, dtype=np.float64).ravel()[-size:]
        count = samples.size
        head = self._head
        end = head + count
        if end <= size:
            ring[head:end] = samples
        else:
            ring[head:] = samples[: size - head]
            ring[: end - size] = samples[size - head :]
        self._head = end % size
        self._samples = min(self._samples + count, size)

    # -- reading -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Cache hits per read, 0.0 before any read."""
        reads = self.cache_hits + self.cache_misses
        return self.cache_hits / reads if reads else 0.0

    def latency_percentiles(self, *quantiles: float) -> Tuple[float, ...]:
        """Latency percentiles in seconds (0.0 without samples)."""
        if not self._samples:
            return tuple(0.0 for __ in quantiles)
        pool = self._ring[: self._samples]
        return tuple(float(np.percentile(pool, quantile)) for quantile in quantiles)

    def batch_histogram(self) -> Dict[int, int]:
        """Power-of-two batch-size histogram as a plain dict."""
        return dict(sorted(self._batch_buckets.items()))

    def snapshot(self) -> ServingSnapshot:
        """Condense the accumulator into operator-facing numbers."""
        p50, p99 = self.latency_percentiles(50.0, 99.0)
        return ServingSnapshot(
            requests=self.requests,
            gets=self.gets,
            puts=self.puts,
            deletes=self.deletes,
            batches=self.batches,
            mean_batch=(
                self.batched_requests / self.batches if self.batches else 0.0
            ),
            max_batch=self.max_batch,
            batch_histogram=tuple(sorted(self._batch_buckets.items())),
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            hit_rate=self.hit_rate,
            invalidated_keys=self.invalidated_keys,
            cache_flushes=self.cache_flushes,
            p50_ms=p50 * 1e3,
            p99_ms=p99 * 1e3,
            throughput_rps=(
                self.requests / self.busy_seconds if self.busy_seconds else 0.0
            ),
        )
