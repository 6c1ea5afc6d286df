"""The performance guide names exactly the metrics the suite measures.

``docs/PERFORMANCE.md``'s Metrics table has one row per entry of
:data:`repro.perf.baseline.METRICS`, in the table's order, so a metric
added to or dropped from the throughput suite cannot leave the guide
behind.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.perf.baseline import METRICS

PERFORMANCE = Path(__file__).resolve().parents[2] / "docs" / "PERFORMANCE.md"

_ROW = re.compile(r"^\| `(\w+)` \|")


def documented_metrics():
    """First-column names of the guide's Metrics table, in order."""
    lines = PERFORMANCE.read_text().splitlines()
    names = []
    for line in lines[lines.index("### Metrics") + 1 :]:
        if line.startswith("#"):
            break
        match = _ROW.match(line)
        if match:
            names.append(match.group(1))
    return names


def test_metrics_table_names_every_metric_in_order():
    assert documented_metrics() == [metric.section for metric in METRICS]
