"""Acceptance: a micro-batch's data-plane cost does not grow with the fleet.

One ``DataPlane.serve_batch`` serves a whole micro-batch -- its cache
misses, deletes and puts -- with one routing pass and one store pass,
and no per-server step.  On maglev with 65,536 stored keys, the same
256-key mixed batch (180 reads, 12 deletes, 64 puts) must cost at most
1.5x as much at 256 servers as at 16.  The old path made one bulk store
call per owning server and op, so it cost about 1.9x as much.

The deleted keys are put back by the same batch, so every repeat starts
from the same state.  Both fleet sizes are timed alternately, in the
same process, and the ratio of their best times is compared, so the
gate does not swing with host speed the way raw-rate floors do.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import make_table
from repro.perf.throughput import _best_seconds
from repro.service import Router
from repro.store import DataPlane

#: Stored keys, and the mixed batch's shape.
_STORED = 65_536
_READS, _DELETES, _PUTS = 180, 12, 64

#: Fleet sizes compared, and the largest allowed cost ratio between them.
_SMALL_FLEET, _LARGE_FLEET = 16, 256
FLEET_COST_CEILING = 1.5

#: Batches per timed call, and alternating rounds of best-of-N timing.
_BATCHES = 20
_ROUNDS = 3


def _plane(servers):
    router = Router(make_table("maglev", seed=0))
    router.sync(["srv-{:03d}".format(index) for index in range(servers)])
    plane = DataPlane(router)
    keys = np.arange(_STORED, dtype=np.int64)
    plane.put_many(keys, keys)
    return plane


def test_mixed_batch_cost_is_flat_in_fleet_size(capsys):
    order = np.random.default_rng(17).permutation(_STORED).tolist()
    reads = order[:_READS]
    deletes = order[_READS : _READS + _DELETES]
    # The deleted keys come back in the same batch.
    puts = deletes + order[_READS + _DELETES : _READS + _DELETES + _PUTS - _DELETES]
    values = [key + 1 for key in puts]
    planes = {servers: _plane(servers) for servers in (_SMALL_FLEET, _LARGE_FLEET)}

    def batches(plane):
        for __ in range(_BATCHES):
            plane.serve_batch(reads, deletes, puts, values)

    best = {servers: float("inf") for servers in planes}
    for __ in range(_ROUNDS):
        for servers, plane in planes.items():
            seconds = _best_seconds(lambda: batches(plane), repeats=5)
            best[servers] = min(best[servers], seconds / _BATCHES)

    for plane in planes.values():
        __, found, deleted, __ = plane.serve_batch(reads, deletes, puts, values)
        assert found.all() and deleted.all()
    ratio = best[_LARGE_FLEET] / best[_SMALL_FLEET]
    with capsys.disabled():
        print(
            "\nmaglev, {:,} keys, {}-key mixed batch: {:.0f} us at {} servers, "
            "{:.0f} us at {} -> {:.2f}x".format(
                _STORED,
                _READS + _DELETES + _PUTS,
                best[_SMALL_FLEET] * 1e6,
                _SMALL_FLEET,
                best[_LARGE_FLEET] * 1e6,
                _LARGE_FLEET,
                ratio,
            )
        )
    assert ratio <= FLEET_COST_CEILING
