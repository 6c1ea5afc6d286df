"""The request path allocates without waking the cyclic collector.

Every request through ``ServingFrontend.lookup`` builds a future and one
``Request`` record, and resolving it schedules one ``Handle`` on the
event loop.  The collector runs a generation-0 pass each time its
allocation count -- container objects allocated minus those freed --
passes the threshold.  A plain tuple record, which CPython takes from
its free list without counting it, upsets that balance: a 10 s
``hot_reads`` window paid 2,400-2,800 collections and 0.9 s of pauses
with plain tuples, against about 30 and 0.003 s with ``Request``
records, and this test counts 97 against 0.

This runs under perf-smoke, not the serve suite: that suite runs in
asyncio debug mode (``-X dev``), which attaches a traceback to every
``Handle`` and so changes what the request path allocates.
"""

from __future__ import annotations

import asyncio
import gc

import numpy as np
import pytest

from repro.hashing import make_table
from repro.serve import ServingFrontend
from repro.service import Router
from repro.store import DataPlane

CALLERS = 1_024
KEYS = 512
#: Requests served before the count starts (every caller running).
WARM_REQUESTS = 30_000
MEASURED_REQUESTS = 100_000
#: At most one collection per this many requests.
REQUESTS_PER_COLLECTION = 10_000


def collections() -> int:
    """Collections so far, every generation: each starts at generation 0."""
    return sum(generation["collections"] for generation in gc.get_stats())


async def drive():
    router = Router(make_table("consistent", seed=34))
    router.sync(["srv-{}".format(index) for index in range(16)])
    plane = DataPlane(router)
    plane.put_many(np.arange(KEYS), np.arange(KEYS) * 3)
    frontend = ServingFrontend(plane, cache_capacity=KEYS)
    frontend.batcher.serve_gets(list(range(KEYS)))
    served = 0
    window = {}

    async def caller(index):
        nonlocal served
        key = index % KEYS
        while served < WARM_REQUESTS + MEASURED_REQUESTS:
            found, value = await frontend.lookup(key)
            assert found and value == key * 3
            key = (key * 5 + 1) % KEYS
            served += 1
            if served == WARM_REQUESTS:
                window["start"] = (served, collections())
        window.setdefault("stop", (served, collections()))

    frontend.start()
    await asyncio.gather(*(caller(index) for index in range(CALLERS)))
    await frontend.stop()
    frontend.close()
    return window


def test_requests_rarely_trigger_a_collection():
    if not gc.isenabled():
        pytest.skip("the cyclic collector is disabled")
    window = asyncio.run(drive())
    (first, before), (last, after) = window["start"], window["stop"]
    requests, collected = last - first, after - before
    assert requests >= MEASURED_REQUESTS
    assert collected <= requests / REQUESTS_PER_COLLECTION, (collected, requests)
