"""The hash-table module: consumes dispatch units, produces assignments.

"The hash table module reads incoming requests from a buffer and uses a
hashing algorithm to map them to an available server" (Section 5.1).

Two execution paths mirror the paper's hardware asymmetry:

* ``vectorized=True`` -- each key batch goes through the algorithm's
  batch path; for HD hashing that is its Eq. 2 inference
  (``infer_batch``, the GPU stand-in), not the position memo its
  ``route_batch`` reads, so Figure 4 times the paper's algorithm;
* ``vectorized=False`` -- keys are served one at a time through the
  scalar ``lookup`` path (the per-request control flow of the classical
  algorithms on a CPU).

Both paths produce identical assignments; only the timing differs.

Membership requests are driven through the :class:`~repro.service.
router.Router` facade, so every join/leave bumps the membership epoch
and lands in the router's history as an
:class:`~repro.service.router.EpochRecord` (with per-epoch remap
fractions when the router tracks a probe set).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Union

import numpy as np

from ..hashing.base import DynamicHashTable
from ..service.router import MembershipUpdate, Router
from .buffer import RequestBuffer
from .requests import JoinRequest, LeaveRequest, Request
from .stats import LoadStats, TimingStats

__all__ = ["HashTableModule", "EmulationReport"]


@dataclass
class EmulationReport:
    """Everything observed while processing one request stream."""

    table_name: str
    timing: TimingStats = field(default_factory=TimingStats)
    load: LoadStats = field(default_factory=LoadStats)
    assignments: List[np.ndarray] = field(default_factory=list)

    @property
    def assignment_array(self) -> np.ndarray:
        """All assigned server ids, in request order."""
        if not self.assignments:
            return np.empty(0, dtype=object)
        return np.concatenate(self.assignments)

    @property
    def n_lookups(self) -> int:
        """Number of lookups served."""
        return self.timing.n_lookups


class HashTableModule:
    """Drives a :class:`DynamicHashTable` from a request stream.

    Accepts either a bare table (wrapped in a fresh :class:`Router`) or
    a pre-configured router (e.g. one tracking a probe set for remap
    accounting).
    """

    def __init__(
        self,
        table: Union[DynamicHashTable, Router],
        batch_size: int = 256,
        vectorized: bool = True,
        record_assignments: bool = True,
    ):
        if isinstance(table, Router):
            self._router = table
        else:
            self._router = Router(table)
        self._table = self._router.table
        self._buffer = RequestBuffer(batch_size)
        self._vectorized = vectorized
        self._infer = getattr(self._table, "infer_batch", None)
        self._record_assignments = record_assignments

    @property
    def table(self) -> DynamicHashTable:
        """The algorithm under test."""
        return self._table

    @property
    def router(self) -> Router:
        """The membership facade driving joins/leaves."""
        return self._router

    @property
    def vectorized(self) -> bool:
        """Whether lookups take the batched inference path."""
        return self._vectorized

    def _serve_batch(self, keys: np.ndarray, report: EmulationReport) -> None:
        table = self._table
        started = time.perf_counter()
        if self._vectorized and self._infer is not None:
            slots, __ = self._infer(table.words_of_keys(keys))
            assigned = np.asarray(table.server_ids, dtype=object)[slots]
        elif self._vectorized:
            assigned = table.lookup_batch(keys)
        else:
            assigned = np.empty(keys.size, dtype=object)
            for index, key in enumerate(keys):
                assigned[index] = table.lookup(int(key))
        elapsed = time.perf_counter() - started
        report.timing.record_batch(elapsed, int(keys.size))
        report.load.record(assigned)
        if self._record_assignments:
            report.assignments.append(assigned)

    def process(self, requests: Iterable[Request]) -> EmulationReport:
        """Run a request stream to completion and report statistics."""
        report = EmulationReport(table_name=self._table.name)
        for unit in self._buffer.dispatch(requests):
            if isinstance(unit, JoinRequest):
                result = self._router.apply(MembershipUpdate(joins=(unit.server_id,)))
                # mutate_seconds times only the table's own join, so
                # the facade's bookkeeping (validation, rollback
                # capture, probe accounting) does not pollute the
                # paper's membership-cost statistics.
                report.timing.record_membership(result.record.mutate_seconds)
            elif isinstance(unit, LeaveRequest):
                result = self._router.apply(MembershipUpdate(leaves=(unit.server_id,)))
                report.timing.record_membership(result.record.mutate_seconds)
            else:
                self._serve_batch(unit, report)
        return report
