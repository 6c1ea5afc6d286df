"""Acceptance: HD batch routing against its slower references.

* vectorized batch routing >= 5x the scalar loop.  The
  pre-vectorization hot path dispatched every word through
  ``route_word`` (the default ``DynamicHashTable._route_batch`` loop);
  at the ``bench`` profile the margin is orders of magnitude;
* at the paper's configuration, routing from the position memo >= 100x
  faster than Eq. 2 inference (``infer_batch``) on the same 256-key
  batch, with identical answers;
* at the same configuration, filling a cold memo (the circle walk over
  the codebook's consecutive differences) >= 2x faster than inferring
  all 4,096 positions, with identical slots and distances.

Both sides of each ratio run on the same host in the same process, so
the ratios do not swing with host speed the way raw-rate floors do.
"""

from __future__ import annotations

import numpy as np

from repro.hashing import make_table
from repro.hashing.base import DynamicHashTable
from repro.perf.profiles import perf_profile
from repro.perf.throughput import _best_seconds

#: Words fed to the scalar loop; its per-word cost is flat, so a
#: subsample keeps the benchmark quick without changing the comparison.
_SCALAR_WORDS = 2_048

#: Pool size and batch width of the memo-vs-inference gate: the paper
#: config (10,000-bit hypervectors, 4,096-node circle) at its GPU batch.
_PAPER_SERVERS = 64
_PAPER_BATCH = 256

#: Minimum speedup of memo routing over Eq. 2 inference at that config.
MEMO_SPEEDUP_FLOOR = 100.0

#: Minimum speedup of a cold memo fill over inferring every position.
FILL_SPEEDUP_FLOOR = 2.0


def _best_per_word(fn, n_words, repeats=3):
    """Per-word time via the harness's own warmup + best-of-N loop."""
    return _best_seconds(fn, repeats) / n_words


def test_hd_batch_routing_at_least_5x_scalar(capsys):
    profile = perf_profile("bench")
    table = make_table("hd", seed=0, **profile.config_for("hd"))
    for index in range(profile.servers):
        table.join("srv-{:05d}".format(index))
    rng = np.random.default_rng(42)
    words = rng.integers(0, 2**64, profile.batch_words, dtype=np.uint64)
    scalar_words = words[:_SCALAR_WORDS]

    vector_per_word = _best_per_word(lambda: table.route_batch(words), words.size)
    scalar_per_word = _best_per_word(
        lambda: DynamicHashTable._route_batch(table, scalar_words),
        scalar_words.size,
    )

    # Same answers before comparing speeds.
    assert np.array_equal(
        table.route_batch(scalar_words),
        DynamicHashTable._route_batch(table, scalar_words),
    )

    speedup = scalar_per_word / vector_per_word
    with capsys.disabled():
        print(
            "\nHD bench profile: scalar {:.2f} us/word, vectorized "
            "{:.4f} us/word -> {:.0f}x".format(
                scalar_per_word * 1e6, vector_per_word * 1e6, speedup
            )
        )
    assert speedup >= 5.0


def test_hd_memo_routing_at_least_100x_inference(capsys):
    table = make_table("hd", seed=0)
    for index in range(_PAPER_SERVERS):
        table.join("srv-{:05d}".format(index))
    words = np.random.default_rng(7).integers(0, 2**64, _PAPER_BATCH, dtype=np.uint64)

    inferred, __ = table.infer_batch(words)
    assert np.array_equal(table.route_batch(words), inferred)

    memo_per_key = _best_per_word(
        lambda: table.route_batch(words), words.size, repeats=20
    )
    infer_per_key = _best_per_word(
        lambda: table.infer_batch(words), words.size, repeats=5
    )
    speedup = infer_per_key / memo_per_key
    with capsys.disabled():
        print(
            "\nHD paper config, {} servers, {}-key batches: inference "
            "{:,.0f} ns/key, memo {:,.0f} ns/key -> {:,.0f}x".format(
                _PAPER_SERVERS,
                _PAPER_BATCH,
                infer_per_key * 1e9,
                memo_per_key * 1e9,
                speedup,
            )
        )
    assert speedup >= MEMO_SPEEDUP_FLOOR


def test_hd_cold_memo_fill_at_least_2x_inference(capsys):
    table = make_table("hd", seed=0)
    for index in range(_PAPER_SERVERS):
        table.join("srv-{:05d}".format(index))
    positions = np.arange(table.codebook_size, dtype=np.uint64)

    # Each timed fill starts from a fresh table's state: no memo entry
    # and no codebook differences.
    fill_seconds = _best_seconds(table._position_owners, 3, reset=table._reset_memo)
    infer_seconds = _best_seconds(lambda: table.infer_batch(positions), 3)

    slots, distances = table.infer_batch(positions)
    assert np.array_equal(table._position_owners(), slots)
    assert np.array_equal(table._memo()[1], distances)
    speedup = infer_seconds / fill_seconds
    with capsys.disabled():
        print(
            "\nHD paper config, {} servers, all {:,} positions: inference "
            "{:.1f} ms, cold memo fill {:.1f} ms -> {:.1f}x".format(
                _PAPER_SERVERS,
                positions.size,
                infer_seconds * 1e3,
                fill_seconds * 1e3,
                speedup,
            )
        )
    assert speedup >= FILL_SPEEDUP_FLOOR
