"""Absolute floors for the serving front-end, hot and cold.

The relative regression gate only catches drops against the committed
baseline; these floors pin the serving tier's two request rates to
absolute values so the batched cache and routing paths cannot quietly
regress to per-key paths together with a refreshed baseline.

On the reference container the fast profile measures 9.2-12.2M req/s
on ``serve_hot`` across every algorithm (a front-end probing its
``OrderedDict`` LRU once per request measured 2.6-3.5M) and 0.7-1.9M
req/s on ``serve_cold``
(cacheless, every request routed).  The hot floor sits at 6M -- about
2x the best the scalar cache ever measured, with >1.5x headroom below
the slowest algorithm -- and the cold floor at 300k, >2x headroom
below the slowest routed path on a loaded CI machine.
"""

from __future__ import annotations

#: Absolute floor for cache-steady-state serving, requests/s at the
#: fast profile.
SERVE_HOT_FLOOR_REQUESTS_PER_S = 6_000_000.0

#: Absolute floor for cacheless (fully routed) serving, requests/s at
#: the fast profile.
SERVE_COLD_FLOOR_REQUESTS_PER_S = 300_000.0


class TestServeThroughputFloors:
    def test_every_algorithm_clears_the_hot_floor(self, fast_report):
        slow = {
            name: record["serve_hot"]["requests_per_s"]
            for name, record in fast_report["algorithms"].items()
            if record["serve_hot"]["requests_per_s"] < SERVE_HOT_FLOOR_REQUESTS_PER_S
        }
        assert not slow, "below {:,.0f} req/s hot: {}".format(
            SERVE_HOT_FLOOR_REQUESTS_PER_S, slow
        )

    def test_every_algorithm_clears_the_cold_floor(self, fast_report):
        slow = {
            name: record["serve_cold"]["requests_per_s"]
            for name, record in fast_report["algorithms"].items()
            if record["serve_cold"]["requests_per_s"] < SERVE_COLD_FLOOR_REQUESTS_PER_S
        }
        assert not slow, "below {:,.0f} req/s cold: {}".format(
            SERVE_COLD_FLOOR_REQUESTS_PER_S, slow
        )

    def test_hot_path_beats_cold_path_everywhere(self, fast_report):
        # The cache exists to absorb the Zipf head; if the hot rate
        # ever drops to the cold rate the cache's bulk probe/install
        # path has degenerated into routing every request.
        not_absorbing = {
            name: (
                record["serve_hot"]["requests_per_s"],
                record["serve_cold"]["requests_per_s"],
            )
            for name, record in fast_report["algorithms"].items()
            if record["serve_hot"]["requests_per_s"]
            <= record["serve_cold"]["requests_per_s"]
        }
        assert not not_absorbing, "hot not faster than cold: {}".format(not_absorbing)
