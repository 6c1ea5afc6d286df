"""Throughput measurement: the perf subsystem behind ``repro bench``.

The paper's claim is architectural -- HD routing is a bulk XOR+popcount
sweep that should run at memory-bandwidth speed -- but a reproduction
only *proves* that with numbers that are measured continuously.  This
package turns the routing stack into a benchmarked system:

profiles
    ``fast`` / ``bench`` / ``full`` measurement scales (pool size,
    batch width, repetition counts, per-algorithm configs).
throughput
    the measurement harness: every metric's throughput per registered
    algorithm, plus a machine-calibration sweep that lets runs from
    different hardware be compared.
baseline
    the metric table (``METRICS``) and the ``BENCH_throughput.json``
    artifact: schema, save/load, and the regression comparison the CI
    perf gate runs.

The committed ``BENCH_throughput.json`` at the repo root is the
baseline every future change is judged against; ``repro bench --check``
fails when any algorithm's normalized throughput regresses beyond the
tolerance (30 % by default).
"""

from .baseline import (
    SCHEMA_VERSION,
    Regression,
    compare_reports,
    format_report,
    load_report,
    save_report,
)
from .profiles import PERF_PROFILES, PerfProfile, perf_profile
from .throughput import calibrate, measure_algorithm, run_suite

__all__ = [
    "PERF_PROFILES",
    "PerfProfile",
    "Regression",
    "SCHEMA_VERSION",
    "calibrate",
    "compare_reports",
    "format_report",
    "load_report",
    "measure_algorithm",
    "perf_profile",
    "run_suite",
    "save_report",
]
