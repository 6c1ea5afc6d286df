"""Absolute floors for the churn + epoch-close tentpole targets.

The regression gate (``compare_reports``) is *relative* -- it only
catches drops against the committed baseline, and churn sits in its
noisy tier.  These tests pin the membership-speed targets to absolute
floors so the kernels cannot quietly regress together with a refreshed
baseline (the CI ``perf-smoke`` job runs this whole package):

* every registered algorithm must clear 10k membership events/s at the
  fast profile.  Before the bulk kernels the weighted wrapper measured
  ~3.6k ev/s and Maglev ~4.6k; both now clear the floor, and nothing
  may fall back under it;
* the weighted wrapper specifically must clear 35k ev/s -- its churn
  was the fleet's worst by 3x, and the wrapper's per-server block
  update of its owner map (one inner bulk call and one owner-block
  patch per real server) is what the floor witnesses -- and it must
  no longer be the slowest algorithm in the fleet;
* closing a *named* epoch over a million tracked keys must be at least
  5x faster than the full tracked-slice re-route for the delta-scoped
  algorithms (HD, the ring, rendezvous and its weighted variant) --
  the :class:`~repro.service.migration.DeltaTracker` fast path priced
  against the same tracker with the fast path disarmed, on the same
  table, same keys, same epochs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.hashing import make_table
from repro.service.migration import DeltaTracker

#: Absolute churn floor, membership events/s at the fast profile.
CHURN_FLOOR_EVENTS_PER_S = 10_000.0

#: The weighted wrapper's own floor (the tentpole's headline target).
WEIGHTED_CHURN_FLOOR_EVENTS_PER_S = 35_000.0

#: Minimum speedup of the delta-scoped epoch close over the full
#: re-route at a million tracked keys.
EPOCH_CLOSE_SPEEDUP_FLOOR = 5.0

#: Tracked population the epoch-close acceptance is stated at.
EPOCH_CLOSE_KEYS = 1_048_576

#: Pool size for the epoch-close comparison -- the scale the speedups
#: were accepted at (the full re-route grows with neither, the scoped
#: close shrinks with pool-relative delta size).
EPOCH_CLOSE_SERVERS = 64

#: The delta-scoped algorithms the acceptance names, at their default
#: (production) configurations -- for HD that is the 10k-dim, 4096-node
#: codebook, whose full-recompute query cost is what the scoped close
#: saves (a CI-shrunk codebook makes the *full* path artificially cheap
#: and the ratio stops measuring the fast path).
EPOCH_CLOSE_CONFIGS = {
    "hd": {},
    "consistent": {},
    "rendezvous": {},
    "weighted-rendezvous": {},
}


class TestChurnFloors:
    def test_every_algorithm_clears_the_floor(self, fast_report):
        slow = {
            name: record["churn"]["events_per_s"]
            for name, record in fast_report["algorithms"].items()
            if record["churn"]["events_per_s"] < CHURN_FLOOR_EVENTS_PER_S
        }
        assert not slow, "below {:,.0f} ev/s: {}".format(
            CHURN_FLOOR_EVENTS_PER_S, slow
        )

    def test_weighted_clears_its_own_floor(self, fast_report):
        rate = fast_report["algorithms"]["weighted"]["churn"]["events_per_s"]
        assert rate >= WEIGHTED_CHURN_FLOOR_EVENTS_PER_S, (
            "weighted churn {:,.0f} ev/s is under the {:,.0f} ev/s "
            "floor".format(rate, WEIGHTED_CHURN_FLOOR_EVENTS_PER_S)
        )

    def test_weighted_is_no_longer_the_slowest(self, fast_report):
        rates = {
            name: record["churn"]["events_per_s"]
            for name, record in fast_report["algorithms"].items()
        }
        slowest = min(rates, key=rates.get)
        assert slowest != "weighted", rates


def _timed_epoch_pair(tracker, table, spare):
    """(seconds, moved) for one named grow + shrink epoch pair."""
    table.join(spare)
    started = time.perf_counter()
    grow = tracker.close(joined=[spare])
    elapsed = time.perf_counter() - started
    table.leave(spare)
    started = time.perf_counter()
    shrink = tracker.close(left=[spare])
    elapsed += time.perf_counter() - started
    return elapsed, grow.moved + shrink.moved


def _epoch_close_speedup(name, config, repeats=3):
    """Best-pair speedup of the scoped close over the full re-route.

    Both trackers watch the *same* table and probe population; the
    ``full`` tracker is built without the table, which disarms the
    fast path -- every close is the full tracked-slice re-route.  The
    epochs are interleaved so both sides price identical membership
    events, and each side keeps its own best-of-``repeats`` pair.
    """
    table = make_table(name, seed=11, **config)
    for index in range(EPOCH_CLOSE_SERVERS):
        table.join("srv-{:05d}".format(index))
    keys = np.arange(EPOCH_CLOSE_KEYS, dtype=np.int64)
    words = table.words_of_keys(keys)
    fast = DeltaTracker(table.lookup_words, table=table)
    full = DeltaTracker(table.lookup_words)
    fast.track(keys, words)
    full.track(keys, words)
    # The fast path is armed: position owners or winning scores.
    assert fast._owners is not None or fast._scores is not None, name
    best_fast = best_full = float("inf")
    for round_index in range(repeats):
        spare = "spare-{:05d}".format(round_index)
        fast_seconds, fast_moved = _timed_epoch_pair(fast, table, spare)
        full_seconds, full_moved = _timed_epoch_pair(full, table, spare)
        assert fast_moved == full_moved, name  # same bill, both paths
        best_fast = min(best_fast, fast_seconds)
        best_full = min(best_full, full_seconds)
    return best_full / best_fast


class TestEpochCloseFloors:
    def test_delta_scoped_close_beats_full_recompute_5x(self):
        ratios = {
            name: _epoch_close_speedup(name, config)
            for name, config in EPOCH_CLOSE_CONFIGS.items()
        }
        slow = {
            name: round(ratio, 2)
            for name, ratio in ratios.items()
            if ratio < EPOCH_CLOSE_SPEEDUP_FLOOR
        }
        assert not slow, (
            "delta-scoped close under {}x of the full re-route at "
            "{:,} tracked keys: {}".format(
                EPOCH_CLOSE_SPEEDUP_FLOOR, EPOCH_CLOSE_KEYS, slow
            )
        )
