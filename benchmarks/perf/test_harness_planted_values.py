"""The end-to-end benchmark's correctness check catches wrong values.

``perfbench`` checks every read its callers make against their own
record of what they wrote, and reads every stored key back at its
owner after the window.  This test plants wrong values where both
kinds of read now pass, :meth:`~repro.store.DataPlane.serve_batch`
(the front-end's cache misses and the read-back's ``get_many`` are
both one), and asserts that a tiny ``cold_mixed`` run flags them in
both checks.  The same run without the plant must come out correct,
so the check is not failing for some other reason.

``perfbench``'s own planted-value test patches ``ServerStore.get_many``,
which neither read path calls any more, so this one stands in for it
until the benchmark plants its values where every path reads.
"""

from __future__ import annotations

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.store import DataPlane

_PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: The benchmark's own tiny ``cold_mixed`` settings, and its window.
_TINY = dict(
    stored_keys=4_096, reserved_keys=256, cache_capacity=64, callers=64, max_batch=16
)
_SECONDS = 0.4


def _corrupting(serve_batch):
    """``serve_batch`` returning a wrong value for every found key % 97 == 0."""

    def corrupted(self, reads, deletes, puts, values):
        read_values, found, deleted, owners = serve_batch(
            self, reads, deletes, puts, values
        )
        for position, key in enumerate(reads):
            if key % 97 == 0 and found[position]:
                read_values[position] = (key + 1) << 32
        return read_values, found, deleted, owners

    return corrupted


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
def test_planted_wrong_values_are_caught(monkeypatch, planted):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    harness = importlib.import_module("harness")
    workloads = importlib.import_module("workloads")
    if planted:
        monkeypatch.setattr(
            DataPlane, "serve_batch", _corrupting(DataPlane.serve_batch)
        )
    workload = replace(workloads.WORKLOADS["cold_mixed"], **_TINY)
    stream = workloads.RequestStream(workload, 2)
    stack = harness.build_stack(workload, stream)
    window = harness.measure_window(stack, workload, stream, _SECONDS)
    assert window.verified_keys == _TINY["stored_keys"]
    if planted:
        assert window.counts.get("never_written", 0) > 0
        assert window.verify_failures > 0
        assert not window.correct
    else:
        assert window.correct
