"""Acceptance: a Maglev fill past 32 servers costs what a fill at 32 does.

Maglev fills its lookup table with one race over its members' cached
permutation rows, at every pool size.  At table size 4,099 the fill of
64 servers must cost at most 2x the fill of 32 servers.  Pools past 32
servers used to take a vectorized round phase instead, which cost
5.8-7.3x as much there, so this gate fails if large pools leave the
race again.

Each timed call marks the table stale and materializes it: exactly one
fill over the same membership.  Both pool sizes are timed alternately,
in the same process, and the ratio of their best times is compared, so
the gate does not swing with host speed the way raw-rate floors do.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import make_table
from repro.perf.throughput import _best_seconds

#: Table size, the pool sizes compared, and the largest allowed cost
#: ratio between them.
_TABLE_SIZE = 4_099
_SMALL_POOL, _LARGE_POOL = 32, 64
POOL_COST_CEILING = 2.0

#: Best-of-N repeats per round, and alternating rounds (best of 9).
_REPEATS = 3
_ROUNDS = 3


def _table(servers):
    table = make_table("maglev", seed=0, table_size=_TABLE_SIZE)
    table.join_many(["srv-{:03d}".format(index) for index in range(servers)])
    return table


def _fill(table):
    table._stale = True
    table._materialized()


def test_fill_cost_is_flat_past_32_servers(capsys):
    tables = {servers: _table(servers) for servers in (_SMALL_POOL, _LARGE_POOL)}
    first = {servers: table._materialized().copy() for servers, table in tables.items()}

    best = {servers: float("inf") for servers in tables}
    for __ in range(_ROUNDS):
        for servers, table in tables.items():
            seconds = _best_seconds(lambda: _fill(table), repeats=_REPEATS)
            best[servers] = min(best[servers], seconds)

    for servers, table in tables.items():
        assert np.array_equal(table._materialized(), first[servers])
        assert np.unique(first[servers]).tolist() == list(range(servers))
    ratio = best[_LARGE_POOL] / best[_SMALL_POOL]
    with capsys.disabled():
        print(
            "\nmaglev fill at table size {:,}: {:.2f} ms at {} servers, "
            "{:.2f} ms at {} -> {:.2f}x".format(
                _TABLE_SIZE,
                best[_SMALL_POOL] * 1e3,
                _SMALL_POOL,
                best[_LARGE_POOL] * 1e3,
                _LARGE_POOL,
                ratio,
            )
        )
    assert ratio <= POOL_COST_CEILING
