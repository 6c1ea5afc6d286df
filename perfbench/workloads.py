"""The three client workloads and their seeded request streams.

Every workload is a closed loop of caller coroutines driving the public
``ServingFrontend`` API.  The system under test is configured from the
fixed settings below; the ``--seed`` only shapes the request stream (and
the resize workload's suspect server and burst position), so the program
receives nothing but the generated requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.emulator.distributions import ZipfKeys

GET, PUT, DELETE = 0, 1, 2

#: Exponent of every Zipf key distribution.
ZIPF_S = 1.1

#: Requests per generated stream chunk.  Chunks are generated lazily as
#: the callers reach them; small chunks keep each generation stall
#: (a client cost) well under one batch cycle.
CHUNK_BITS = 13
CHUNK = 1 << CHUNK_BITS

#: ``SeedSequence`` spawn keys separating the independent random streams.
_PERMUTATION, _CHUNKS, _EVENTS, _WARM = 0, 1, 2, 3


@dataclass(frozen=True)
class Workload:
    """Settings of one workload; ``settings()`` is what every run prints."""

    name: str
    why: str
    algorithm: str
    table_config: Dict[str, int] = field(default_factory=dict)
    servers: int = 64
    stored_keys: int = 4_096
    #: ``"zipf"`` draws keys by popularity rank (exponent ``ZIPF_S``)
    #: over a seeded rank->key permutation; ``"uniform"`` draws uniformly.
    distribution: str = "uniform"
    get_frac: float = 1.0
    put_frac: float = 0.0
    delete_frac: float = 0.0
    #: Deletes touch only keys ``[0, reserved_keys)``; a matching share
    #: of puts refills that slice, so every other key must always exist.
    reserved_keys: int = 0
    callers: int = 1_024
    max_batch: int = 256
    max_delay: float = 0.001
    cache_capacity: int = 4_096
    #: Servers admitted in one tick mid-run (0: no membership change).
    scale_out: int = 0
    #: Length of the injected multi-cell burst (0: no injection).
    burst_bits: int = 0

    def settings(self) -> Dict[str, object]:
        mix = {"get": self.get_frac, "put": self.put_frac, "delete": self.delete_frac}
        return {
            "algorithm": self.algorithm,
            "config": dict(self.table_config) or "registry default",
            "servers": (
                "{}->{}".format(self.servers, self.servers + self.scale_out)
                if self.scale_out
                else self.servers
            ),
            "stored_keys": self.stored_keys,
            "distribution": (
                "zipf({})".format(ZIPF_S)
                if self.distribution == "zipf"
                else "uniform"
            ),
            "universe_to_cache": self.stored_keys / self.cache_capacity,
            "mix": " ".join(
                "{} {:.0%}".format(op, share) for op, share in mix.items() if share
            ),
            "reserved_keys": self.reserved_keys,
            "callers": self.callers,
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay * 1e3,
            "cache_capacity": self.cache_capacity,
            "burst_bits": self.burst_bits,
        }


#: The paper's HD configuration (Section 5): d = 10,000, |C| = 4,096.
PAPER_HD = {"dim": 10_000, "codebook_size": 4_096}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="hot_reads",
            why=(
                "Zipf reads of a universe the cache holds: nearly every "
                "request is a hit, so the serve layer does all the work and "
                "routing and the store sit idle."
            ),
            algorithm="hd",
            table_config=PAPER_HD,
            stored_keys=4_096,
            distribution="zipf",
        ),
        Workload(
            name="cold_mixed",
            why=(
                "Uniform get/put/delete over 256x the cache on consistent "
                "hashing: owner grouping, id maps, the key hash and the write "
                "paths dominate; the HD kernel never runs."
            ),
            algorithm="consistent",
            stored_keys=1 << 20,
            distribution="uniform",
            get_frac=0.70,
            put_frac=0.25,
            delete_frac=0.05,
            reserved_keys=1 << 16,
        ),
        Workload(
            name="resize_under_load",
            why=(
                "HD at the paper's config under Zipf reads/writes through a "
                "suspect server, a 64->72 scale-out and a 10-bit burst: the "
                "only run of epochs, migration, failover and memory faults."
            ),
            algorithm="hd",
            table_config=PAPER_HD,
            stored_keys=1 << 18,
            distribution="zipf",
            get_frac=0.90,
            put_frac=0.10,
            scale_out=8,
            burst_bits=10,
        ),
    )
}


def _rng(seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


class RequestStream:
    """The workload's request sequence for one seed: ``(op, key)`` pairs.

    Chunk ``i`` depends only on ``(seed, i)``, so the stream is identical
    for a seed however far a run gets into it.
    """

    def __init__(self, workload: Workload, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative, got {}".format(seed))
        self.workload = workload
        self.seed = seed
        n = workload.stored_keys
        if workload.distribution == "zipf":
            self._zipf = ZipfKeys(universe=n, exponent=ZIPF_S)
            #: ``ranked[r]`` is the key of popularity rank ``r``.
            self.ranked = _rng(seed, _PERMUTATION).permutation(n)
        elif workload.distribution == "uniform":
            self._zipf = None
            self.ranked = None
        else:
            raise ValueError("unknown distribution {!r}".format(workload.distribution))
        self._cut_put = workload.get_frac
        self._cut_delete = workload.get_frac + workload.put_frac

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self._zipf is None:
            return rng.integers(0, self.workload.stored_keys, count)
        return self.ranked[self._zipf.sample(count, rng)]

    def chunk(self, index: int) -> Tuple[List[int], List[int]]:
        """Chunk ``index`` as ``(ops, keys)`` lists of builtin ints."""
        workload = self.workload
        rng = _rng(self.seed, _CHUNKS, index)
        draw = rng.random(CHUNK)
        ops = np.full(CHUNK, GET, dtype=np.int64)
        ops[draw >= self._cut_put] = PUT
        ops[draw >= self._cut_delete] = DELETE
        keys = self._draw(rng, CHUNK)
        if workload.delete_frac:
            reserved = rng.integers(0, workload.reserved_keys, CHUNK)
            refill = (ops == PUT) & (
                rng.random(CHUNK) < workload.delete_frac / workload.put_frac
            )
            into_slice = (ops == DELETE) | refill
            keys[into_slice] = reserved[into_slice]
        return ops.tolist(), keys.tolist()

    def hot_keys(self, count: int) -> List[int]:
        """The keys a warm cache holds: top ranks, or a seeded sample."""
        count = min(count, self.workload.stored_keys)
        if self.ranked is not None:
            return self.ranked[:count].tolist()
        rng = _rng(self.seed, _WARM)
        return rng.choice(self.workload.stored_keys, count, replace=False).tolist()

    def events_rng(self) -> np.random.Generator:
        """Randomness of the resize events (suspect server, burst)."""
        return _rng(self.seed, _EVENTS)
