"""Absolute floors for the PR 7 tentpole targets.

The regression gate (``compare_reports``) is *relative* -- it only
catches drops against the committed baseline.  These tests pin the
three vectorization targets to absolute floors so the kernels cannot
quietly regress together with a refreshed baseline:

* ``route_replicas`` must stay batch-vectorized for every algorithm.
  On the reference container the slowest kernel (weighted's fused
  group-max) measures 1.0-1.4M keys/s under load and 2-14M keys/s
  quiet; the pre-vectorization scalar walks measured 40-90k keys/s.
  The floor sits at 500k -- far above any scalar fallback, with 2x
  headroom for a loaded CI machine.
* Maglev churn must stay within 10x of the ring family's: incremental
  permutation caching plus deferred fill prices a membership event at
  a table refill amortized over the batch, not an eager from-scratch
  build per event.
* Every registered algorithm must override ``_route_batch`` and
  ``_route_replicas_batch`` -- a deterministic, noise-free witness that
  no algorithm fell back to the base class's scalar loops.
"""

from __future__ import annotations

from repro.hashing import DynamicHashTable, registered_algorithms, table_class

#: Absolute floor for batch replica routing, keys/s at the fast profile.
REPLICA_FLOOR_KEYS_PER_S = 500_000.0

#: Maglev churn may cost at most this factor over plain consistent
#: hashing's churn (the cheapest ring-family table).
MAGLEV_CHURN_FACTOR = 10.0


class TestReplicaThroughputFloors:
    def test_every_algorithm_clears_the_floor(self, fast_report):
        slow = {
            name: record["route_replicas"]["keys_per_s"]
            for name, record in fast_report["algorithms"].items()
            if record["route_replicas"]["keys_per_s"]
            < REPLICA_FLOOR_KEYS_PER_S
        }
        assert not slow, "below {:,.0f} keys/s: {}".format(
            REPLICA_FLOOR_KEYS_PER_S, slow
        )

    def test_every_algorithm_is_replica_batch_native(self):
        missing = [
            (name, kernel)
            for name in registered_algorithms()
            for kernel in ("_route_batch", "_route_replicas_batch")
            if getattr(table_class(name), kernel) is getattr(DynamicHashTable, kernel)
        ]
        assert not missing, missing


class TestMaglevChurnFloor:
    def test_churn_within_factor_of_ring_family(self, fast_report):
        maglev = fast_report["algorithms"]["maglev"]["churn"]["events_per_s"]
        consistent = fast_report["algorithms"]["consistent"]["churn"][
            "events_per_s"
        ]
        assert maglev * MAGLEV_CHURN_FACTOR >= consistent, (
            "maglev churn {:,.0f} ev/s is more than {}x slower than "
            "consistent's {:,.0f} ev/s".format(
                maglev, MAGLEV_CHURN_FACTOR, consistent
            )
        )
