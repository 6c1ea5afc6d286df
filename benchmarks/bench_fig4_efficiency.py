"""Figure 4: average request handling duration vs pool size.

Regenerates the efficiency sweep (printed as a table) and adds
per-algorithm micro-benchmarks of a single lookup at a fixed pool size,
so the pytest-benchmark comparison table shows the same ordering the
figure does: rendezvous linear and slowest, consistent near-flat, HD
tracking consistent via its batched inference.  The HD cases time Eq. 2
inference (``infer_batch``), as the figure does, not the position memo
``route_batch`` reads.
"""

import numpy as np
import pytest

from repro.experiments import EfficiencyConfig, TableBuilder, run_efficiency

from .conftest import config_for, emit


def test_fig4_efficiency_sweep(benchmark, capsys, profile):
    config = config_for(EfficiencyConfig, profile)
    result = benchmark.pedantic(
        run_efficiency, args=(config,), rounds=1, iterations=1
    )
    emit(capsys, result)
    # Shape assertions: rendezvous grows with k, consistent stays flat-ish.
    rendezvous = result.column("us_per_request", algorithm="rendezvous")
    consistent = result.column("us_per_request", algorithm="consistent")
    assert rendezvous[-1] > rendezvous[0]
    assert rendezvous[-1] > consistent[-1]


@pytest.fixture(scope="module")
def populated_tables(profile):
    config = config_for(EfficiencyConfig, profile)
    builder = TableBuilder(
        seed=config.seed,
        hd_dim=config.hd_dim,
        hd_codebook_size=config.hd_codebook_size,
    )
    k = min(128, config.hd_codebook_size // 2)
    return {
        name: builder.build_populated(name, k)
        for name in ("modular", "consistent", "rendezvous", "hd")
    }


@pytest.mark.parametrize(
    "algorithm", ["modular", "consistent", "rendezvous", "hd"]
)
def test_fig4_single_lookup(benchmark, populated_tables, algorithm):
    table = populated_tables[algorithm]
    words = iter(np.random.default_rng(1).integers(0, 2 ** 63, 1 << 20))

    if algorithm == "hd":

        def lookup():
            word = np.asarray([next(words)], dtype=np.uint64)
            return int(table.infer_batch(word)[0][0])

    else:

        def lookup():
            return table.route_word(int(next(words)))

    slot = benchmark(lookup)
    assert 0 <= slot < table.server_count


@pytest.mark.parametrize(
    "algorithm", ["modular", "consistent", "rendezvous", "hd"]
)
def test_fig4_batched_lookup_256(benchmark, populated_tables, algorithm):
    """The paper's GPU batch size: 256 requests per inference batch."""
    table = populated_tables[algorithm]
    words = np.random.default_rng(2).integers(0, 2 ** 64, 256, dtype=np.uint64)

    if algorithm == "hd":

        def lookup_batch():
            return table.infer_batch(words)[0]

    else:

        def lookup_batch():
            return table.route_batch(words)

    slots = benchmark(lookup_batch)
    assert slots.shape == (256,)
