"""The ``BENCH_throughput.json`` artifact and the CI regression gate.

:data:`METRICS` is the metric set, one :class:`Metric` per metric: its
record section, the key of its raw rate, its report column and its gate
tier.  The per-algorithm record, the gate and the report all read it;
:mod:`repro.perf.throughput` says what each metric times.

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
          "<section>": {"<rate>": <float>, "normalized": <float>},
          ...                             # one per METRICS entry
        }, ...
      }
    }

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
    "Metric",
    "Regression",
    "compare_reports",
    "coverage_drift",
    "format_report",
    "load_report",
    "report_header",
    "report_row",
    "save_report",
]

#: Version stamp of the report layout documented above.
SCHEMA_VERSION = 7

#: Maximum tolerated fractional drop in normalized throughput.
DEFAULT_TOLERANCE = 0.30

#: Gate floor of the wide tier (:attr:`Metric.wide`): those blocks
#: scatter ~2x run to run even best-of-N, far more than the array-wide
#: routing sweeps, so the gate tolerates a wider drop before flagging
#: them.  An explicit ``tolerance`` above this floor applies too.
CHURN_TOLERANCE = 0.50


@dataclass(frozen=True)
class Metric:
    """One BENCH metric, as the record, the gate and the report name it."""

    #: The metric's name: its section in each per-algorithm record.
    section: str
    #: Key of the raw rate in that section, beside ``normalized``.
    rate: str
    #: Column heading in :func:`format_report`.
    column: str
    #: Gate tier: a wide metric is gated at no less than
    #: :data:`CHURN_TOLERANCE`.
    wide: bool


#: The metric set, in report order.  The wide tier holds the blocks
#: built on microsecond-scale membership mutations (``churn``, and the
#: epochs around ``plan_migration``'s plan assembly and
#: ``epoch_close``'s accounting sweep), per-key loops with clone setup
#: (``migrate_execute``), pure-Python reconciliation passes
#: (``control_tick``) and per-batch Python dispatch (``serve_hot``,
#: ``serve_cold``).
METRICS = (
    Metric("route", "keys_per_s", "route k/s", wide=False),
    Metric("route_replicas", "keys_per_s", "replicas k/s", wide=False),
    Metric("cluster_route", "keys_per_s", "cluster k/s", wide=False),
    Metric("lookup", "keys_per_s", "lookup k/s", wide=False),
    Metric("churn", "events_per_s", "churn ev/s", wide=True),
    Metric("plan_migration", "keys_per_s", "plan k/s", wide=True),
    Metric("migrate_execute", "keys_per_s", "migrate k/s", wide=True),
    Metric("control_tick", "ticks_per_s", "ctl t/s", wide=True),
    Metric("serve_hot", "requests_per_s", "hot r/s", wide=True),
    Metric("serve_cold", "requests_per_s", "cold r/s", wide=True),
    Metric("epoch_close", "keys_per_s", "close k/s", wide=True),
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
    a score strictly below ``baseline * (1 - tolerance)`` (wide-tier
    metrics use at least :data:`CHURN_TOLERANCE`, see there).  Profiles
    must match -- comparing a ``fast`` run against a ``bench`` baseline
    would compare different workloads.
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
            allowed = max(tolerance, CHURN_TOLERANCE) if metric.wide else tolerance
            before = float(baseline["algorithms"][name][metric.section]["normalized"])
            after = float(current["algorithms"][name][metric.section]["normalized"])
            if after < before * (1.0 - allowed):
                regressions.append(
                    Regression(
                        algorithm=name,
                        metric=metric.section,
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
        report_header(),
    ]
    for name in sorted(report["algorithms"]):
        lines.append(report_row(name, report["algorithms"][name]))
    return "\n".join(lines)


def report_header() -> str:
    """The column headings of the :func:`format_report` table."""
    return "{:<22}".format("algorithm") + "".join(
        " {:>13}".format(metric.column) for metric in METRICS
    )


def report_row(name: str, record: Dict[str, Any]) -> str:
    """One algorithm's raw rates, under :func:`report_header`."""
    return "{:<22}".format(name) + "".join(
        " {:>13,.0f}".format(record[metric.section][metric.rate]) for metric in METRICS
    )
