"""The ``BENCH_throughput.json`` artifact and the CI regression gate.

Schema (version 7; version 2 added the ``route_replicas`` and
``cluster_route`` metric sections, version 3 added ``plan_migration``
and ``migrate_execute``, version 4 added ``control_tick``, version 5
added ``serve``, version 6 added ``epoch_close``, version 7 split
``serve`` into ``serve_hot`` and ``serve_cold``)::

    {
      "schema": 7,
      "kind": "repro-throughput",
      "profile": "fast",                  # measurement scale
      "seed": 0,
      "python": "3.11.7", "numpy": "2.4.6",
      "calibration": {"xor_popcount_gbps": <float>},
      "algorithms": {
        "<name>": {
          "servers": <int>, "batch_words": <int>, "config": {...},
          "route":  {"keys_per_s": <float>, "normalized": <float>},
          "route_replicas":
                    {"keys_per_s": <float>, "normalized": <float>},
          "cluster_route":
                    {"keys_per_s": <float>, "normalized": <float>},
          "lookup": {"keys_per_s": <float>, "normalized": <float>},
          "churn":  {"events_per_s": <float>, "normalized": <float>},
          "plan_migration":
                    {"keys_per_s": <float>, "normalized": <float>},
          "migrate_execute":
                    {"keys_per_s": <float>, "normalized": <float>},
          "control_tick":
                    {"ticks_per_s": <float>, "normalized": <float>},
          "serve_hot":
                    {"requests_per_s": <float>, "normalized": <float>},
          "serve_cold":
                    {"requests_per_s": <float>, "normalized": <float>},
          "epoch_close":
                    {"keys_per_s": <float>, "normalized": <float>}
        }, ...
      }
    }

``route_replicas`` is k-replica batch routing
(:meth:`~repro.hashing.base.DynamicHashTable.route_replicas_batch`
at the profile's replica count); ``cluster_route`` is the same word
batch fanned through a sharded
:class:`~repro.service.cluster.ClusterRouter` at the profile's shard
count.  ``plan_migration`` is resize epochs closing a full assignment
diff (tracked keys planned per second) and ``migrate_execute`` is the
executor's copy/verify/commit loop over a data plane (moved keys per
second) -- see :mod:`repro.perf.throughput`.  ``control_tick`` is
steady-state reconciliation ticks of the control plane (health poll +
utilization decision + no-op fleet diff) per second -- the idle
overhead a always-on control loop adds.  ``serve_hot`` is Zipf-popular
reads through the serving tier's synchronous dispatch core
(:class:`~repro.serve.MicroBatcher` batches through a
:class:`~repro.serve.HotKeyCache` in front of a stocked data plane) at
cache steady state -- the end-to-end request rate of the micro-batched
front-end when its hot-key cache is absorbing the hot set.
``serve_cold`` is the same batches through a cacheless batcher, so
every request takes the routed ``get_many`` path -- the front-end's
floor when nothing is cacheable (and the variant where routing cost
stays visible).
``epoch_close`` is membership epochs (one grow, one shrink) closed over
a million-key tracked population (tracked keys accounted per second) --
algorithms with delta-scoped score kernels take the
:class:`~repro.service.migration.DeltaTracker` fast path, the rest pay
the full tracked-slice re-route.

``normalized`` is the raw rate divided by the host's calibrated bulk
XOR+popcount bandwidth (GB/s), so a baseline committed from one machine
remains meaningful on another: the gate compares *normalized* scores
and flags an algorithm+metric whose score fell more than ``tolerance``
(default 30 %) below the baseline.  Algorithms present on only one side
are reported as coverage drift, never silently skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_TOLERANCE",
    "METRICS",
    "Regression",
    "compare_reports",
    "coverage_drift",
    "format_report",
    "load_report",
    "save_report",
]

#: Version stamp of the report layout documented above.
SCHEMA_VERSION = 7

#: Maximum tolerated fractional drop in normalized throughput.
DEFAULT_TOLERANCE = 0.30

#: Churn floor: churn blocks are microsecond-scale mutation bursts and
#: scatter ~2x run to run even best-of-N (CPU frequency states), far
#: more than the array-wide routing sweeps -- the gate tolerates a
#: wider drop before flagging them.  An explicit ``tolerance`` above
#: this floor applies too.
CHURN_TOLERANCE = 0.50

#: Metrics gated at :data:`CHURN_TOLERANCE`: churn itself, plus the
#: migration metrics, whose blocks embed the same microsecond-scale
#: membership mutations (``plan_migration``) or per-key Python loops
#: with clone setup (``migrate_execute``), plus ``control_tick``
#: (microsecond-scale pure-Python reconciliation passes), plus the
#: ``serve_hot``/``serve_cold`` pair, whose per-batch Python dispatch
#: (chunk iteration, cache install, store dict traffic) scatters like
#: the other interpreter-bound loops, plus ``epoch_close``, whose
#: blocks embed the same microsecond-scale membership mutations and
#: per-epoch plan assembly around the array-wide accounting sweep.
NOISY_METRICS = frozenset(
    {
        "churn",
        "plan_migration",
        "migrate_execute",
        "control_tick",
        "serve_hot",
        "serve_cold",
        "epoch_close",
    }
)

#: Metric sections every per-algorithm record carries.
METRICS = (
    "route",
    "route_replicas",
    "cluster_route",
    "lookup",
    "churn",
    "plan_migration",
    "migrate_execute",
    "control_tick",
    "serve_hot",
    "serve_cold",
    "epoch_close",
)


@dataclass(frozen=True)
class Regression:
    """One algorithm+metric whose throughput fell past the tolerance."""

    algorithm: str
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        """current / baseline (e.g. 0.55 = lost 45 % of throughput)."""
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        return "{}/{}: normalized {:.3f} -> {:.3f} ({:+.0%} vs baseline)".format(
            self.algorithm, self.metric, self.baseline, self.current, self.ratio - 1.0
        )


def save_report(report: Dict[str, Any], path: str) -> None:
    """Write a throughput report as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    """Read a throughput report, validating the schema stamp."""
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            "unsupported throughput report schema {!r} in {}".format(
                report.get("schema"), path
            )
        )
    if not isinstance(report.get("algorithms"), dict):
        raise ValueError("throughput report {} has no algorithms".format(path))
    return report


def coverage_drift(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(missing, added) algorithm names between baseline and current."""
    current_names = set(current["algorithms"])
    baseline_names = set(baseline["algorithms"])
    return (
        tuple(sorted(baseline_names - current_names)),
        tuple(sorted(current_names - baseline_names)),
    )


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Regression]:
    """Regressions of ``current`` against ``baseline``.

    Compares normalized scores per algorithm and metric; a regression is
    a score strictly below ``baseline * (1 - tolerance)``
    (:data:`NOISY_METRICS` use at least :data:`CHURN_TOLERANCE`, see
    there).  Profiles must match -- comparing a ``fast`` run against a
    ``bench`` baseline would compare different workloads.
    """
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be in [0, 1)")
    if current.get("profile") != baseline.get("profile"):
        raise ValueError(
            "profile mismatch: current {!r} vs baseline {!r}".format(
                current.get("profile"), baseline.get("profile")
            )
        )
    regressions: List[Regression] = []
    for name in sorted(baseline["algorithms"]):
        if name not in current["algorithms"]:
            continue
        for metric in METRICS:
            allowed = (
                max(tolerance, CHURN_TOLERANCE)
                if metric in NOISY_METRICS
                else tolerance
            )
            before = float(baseline["algorithms"][name][metric]["normalized"])
            after = float(current["algorithms"][name][metric]["normalized"])
            if after < before * (1.0 - allowed):
                regressions.append(
                    Regression(
                        algorithm=name,
                        metric=metric,
                        baseline=before,
                        current=after,
                    )
                )
    return regressions


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable summary table of a throughput report."""
    lines = [
        "profile={}  calibration={:.2f} GB/s  (normalized = keys/s per "
        "GB/s, x1e6)".format(
            report.get("profile"),
            report.get("calibration", {}).get("xor_popcount_gbps", 0.0),
        ),
        "{:<22} {:>13} {:>13} {:>13} {:>13} {:>11} {:>12} {:>12} "
        "{:>10} {:>12} {:>12} {:>13}".format(
            "algorithm",
            "route k/s",
            "replicas k/s",
            "cluster k/s",
            "lookup k/s",
            "churn ev/s",
            "plan k/s",
            "migrate k/s",
            "ctl t/s",
            "hot r/s",
            "cold r/s",
            "close k/s",
        ),
    ]
    for name in sorted(report["algorithms"]):
        record = report["algorithms"][name]
        lines.append(
            "{:<22} {:>13,.0f} {:>13,.0f} {:>13,.0f} {:>13,.0f} "
            "{:>11,.0f} {:>12,.0f} {:>12,.0f} {:>10,.0f} {:>12,.0f} "
            "{:>12,.0f} {:>13,.0f}".format(
                name,
                record["route"]["keys_per_s"],
                record["route_replicas"]["keys_per_s"],
                record["cluster_route"]["keys_per_s"],
                record["lookup"]["keys_per_s"],
                record["churn"]["events_per_s"],
                record["plan_migration"]["keys_per_s"],
                record["migrate_execute"]["keys_per_s"],
                record["control_tick"]["ticks_per_s"],
                record["serve_hot"]["requests_per_s"],
                record["serve_cold"]["requests_per_s"],
                record["epoch_close"]["keys_per_s"],
            )
        )
    return "\n".join(lines)
