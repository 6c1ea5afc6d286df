"""The benchmark's own checks, on tiny versions of its three workloads.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import harness
import hostspeed
from repro.store.store import ServerStore
from workloads import CHUNK, WORKLOADS, RequestStream

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

_SMALL_HD = {"dim": 1_024, "codebook_size": 128}
TINY = {
    "hot_reads": replace(
        WORKLOADS["hot_reads"], table_config=_SMALL_HD, stored_keys=256,
        cache_capacity=256, callers=64, max_batch=16,
    ),
    "cold_mixed": replace(
        WORKLOADS["cold_mixed"], stored_keys=4_096, reserved_keys=256,
        cache_capacity=64, callers=64, max_batch=16,
    ),
    "resize_under_load": replace(
        WORKLOADS["resize_under_load"], table_config=_SMALL_HD, stored_keys=4_096,
        cache_capacity=256, callers=64, max_batch=16,
    ),
}
SECONDS = 0.4


def _declared(section):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_benchmark_names_every_workload():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    report = harness.run_untraced(TINY[name], seed=1, seconds=SECONDS)
    result = report.result()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    report = harness.run_traced(
        TINY[name], seed=1, seconds=SECONDS, spans_path=tmp_path / "spans.npz"
    )
    result = report.result()
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    spans = np.load(tmp_path / "spans.npz")
    assert spans["start"].size == spans["end"].size > 0
    assert (spans["end"] >= spans["start"]).all()
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1.0


def test_same_seed_repeats_the_stream_and_a_new_seed_changes_it():
    workload = WORKLOADS["cold_mixed"]
    first, again, other = (RequestStream(workload, seed) for seed in (7, 7, 8))
    for index in (0, 3):
        assert first.chunk(index) == again.chunk(index)
        assert first.chunk(index) != other.chunk(index)
    ops, keys = first.chunk(0)
    assert len(ops) == len(keys) == CHUNK
    zipf = WORKLOADS["resize_under_load"]
    assert RequestStream(zipf, 7).chunk(1) == RequestStream(zipf, 7).chunk(1)
    assert RequestStream(zipf, 7).chunk(1) != RequestStream(zipf, 8).chunk(1)


def test_exact_counts_repeat_for_a_seed():
    def exact(seed):
        metrics = harness.run_traced(TINY["resize_under_load"], seed, SECONDS).metrics
        return tuple(
            metrics[name][0]
            for name in ("service.epoch_moved_keys", "memory.flipped_bits", "misroute_frac")
        )

    first = exact(3)
    assert first == exact(3)
    assert first[0] > 0 and first[1] == TINY["resize_under_load"].burst_bits


def test_serving_figures_are_divided_by_the_host_slowdown():
    workload = TINY["hot_reads"]
    stream = RequestStream(workload, 4)
    window = harness.measure_window(
        harness.build_stack(workload, stream), workload, stream, SECONDS
    )
    start, stop = window.loop.window
    times = np.linspace(start, stop, 200, endpoint=False)
    latencies = np.concatenate(
        [np.frombuffer(part, dtype=np.float32) for part in window.loop.slices]
    )
    raw = window.good_completions().sum() / SECONDS, np.percentile(latencies, 50) * 1e3
    window.probes = (times, np.full(times.size, 2 * hostspeed.NOMINAL_S))
    halved = window.serving()
    assert halved["goodput_rps"] == pytest.approx(2 * raw[0])
    assert halved["p50_ms"] == pytest.approx(raw[1] / 2, rel=1e-3)


def test_planted_wrong_value_is_caught(monkeypatch):
    real_get_many = ServerStore.get_many

    def corrupting_get_many(self, keys):
        values, found = real_get_many(self, keys)
        for position, key in enumerate(keys):
            if key % 97 == 0 and found[position]:
                values[position] = (key + 1) << 32
        return values, found

    monkeypatch.setattr(ServerStore, "get_many", corrupting_get_many)
    workload = TINY["cold_mixed"]
    stream = RequestStream(workload, 2)
    stack = harness.build_stack(workload, stream)
    window = harness.measure_window(stack, workload, stream, SECONDS)
    assert window.counts.get("never_written", 0) > 0
    assert window.verify_failures > 0
    assert not window.correct
