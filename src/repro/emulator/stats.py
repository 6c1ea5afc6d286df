"""Statistics collected by the emulator.

Two families: *timing* (the quantity behind Figure 4 -- average request
handling duration) and *load* (the per-server request counts behind
Figure 6's chi-squared uniformity test).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["TimingStats", "LoadStats"]


@dataclass
class TimingStats:
    """Wall-time accounting for one emulation run."""

    lookup_seconds: float = 0.0
    n_lookups: int = 0
    membership_seconds: float = 0.0
    n_membership_events: int = 0
    batch_durations: List[float] = field(default_factory=list)

    def record_batch(self, seconds: float, count: int) -> None:
        """Record one lookup batch of ``count`` requests."""
        self.lookup_seconds += seconds
        self.n_lookups += count
        self.batch_durations.append(seconds)

    def record_membership(self, seconds: float) -> None:
        """Record one join/leave event."""
        self.membership_seconds += seconds
        self.n_membership_events += 1

    @property
    def mean_lookup_seconds(self) -> float:
        """Average request handling duration (Figure 4's y-axis)."""
        if self.n_lookups == 0:
            return 0.0
        return self.lookup_seconds / self.n_lookups

    @property
    def mean_lookup_micros(self) -> float:
        """Average request handling duration in microseconds."""
        return self.mean_lookup_seconds * 1e6

    def batch_percentile_seconds(self, percentile: float) -> float:
        """Batch-duration percentile (tail-latency view of the same run).

        Figure 4 reports means; operators care about tails, so the
        module keeps every batch duration and exposes percentiles too.
        """
        if not self.batch_durations:
            return 0.0
        return float(np.percentile(self.batch_durations, percentile))


@dataclass
class LoadStats:
    """Per-server assignment counts for a lookup stream."""

    counts: Dict[object, int] = field(default_factory=dict)

    def record(self, server_ids: np.ndarray) -> None:
        """Accumulate a batch of assigned server identifiers.

        Uses a plain counter rather than ``np.unique`` so pools that mix
        identifier types (ints and strings) tally correctly.
        """
        batch = Counter(np.asarray(server_ids, object).tolist())
        for server_id, tally in batch.items():
            self.counts[server_id] = self.counts.get(server_id, 0) + tally

    @property
    def total(self) -> int:
        """Total recorded assignments."""
        return sum(self.counts.values())

    def imbalance(self) -> float:
        """Max-to-mean load ratio (1.0 = perfectly even)."""
        if not self.counts:
            return 0.0
        values = np.asarray(list(self.counts.values()), dtype=np.float64)
        return float(values.max() / values.mean())
