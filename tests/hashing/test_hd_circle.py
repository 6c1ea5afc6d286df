"""The circle walk answers exactly what the sweep answers.

``HDHashTable`` fills many unknown memo positions at once, and computes
a row's distance column, by walking the codebook's consecutive
differences (:func:`~repro.hdc.packing.nearest_rows_circle`,
:func:`~repro.hdc.packing.circle_hamming_words`) whenever that reads
fewer words than the Eq. 2 sweep.  The walk rests on an identity, not
on the codebook being circular, so these oracles compare it with a
brute-force reference kept here (all-pairs Hamming distances over the
packed bytes, first minimum per position) on pristine and corrupted
memory, exposed and corrupted codebooks, level and random codebooks,
one-row memories and distance ties -- and check which path the table
took.
"""

import tracemalloc

import numpy as np
import pytest

from repro.hashing import HDHashTable
from repro.hashing import hd as hd_module
from repro.hashing.base import DynamicHashTable
from repro.hdc import BasisSet, circular_basis, level_basis, random_basis
from repro.hdc.packing import (
    BACKENDS,
    as_words,
    circle_hamming_words,
    circle_steps,
    hamming_packed_matrix,
    nearest_rows_circle,
)
from repro.memory import BurstError, FaultInjector, SingleBitFlips

#: A circle large enough for the table to walk it: every position's
#: full row (16 words) costs more than four of its nonzero difference
#: words (about 2 a step) plus one entry.
DIM, CODEBOOK = 1_024, 1_024


def reference(codebook_packed, memory_packed):
    """``(distances, slots, best)``: the ``(rows, positions)`` distance
    matrix and each position's first-minimum row and its distance."""
    distances = hamming_packed_matrix(memory_packed, codebook_packed)
    slots = distances.argmin(axis=0)
    return distances, slots, distances[slots, np.arange(distances.shape[1])]


def assert_table_exact(table):
    """Every memo entry and every row's column equal the reference."""
    memory = table.item_memory.memory_view()
    distances, slots, best = reference(table._codebook_packed, memory)
    assert np.array_equal(table._position_owners(), slots)
    memo_slots, memo_distances = table._memo()
    assert np.array_equal(memo_slots, slots)
    assert np.array_equal(memo_distances, best)
    for row in range(len(memory)):
        assert np.array_equal(table._column(row), distances[row])
    inferred_slots, inferred_distances = table.infer_batch(
        np.arange(table.codebook_size, dtype=np.uint64)
    )
    assert np.array_equal(inferred_slots, slots)
    assert np.array_equal(inferred_distances, best)


def walked(table):
    """Whether the table fills a cold memo by walking the circle."""
    return table._circle(table.codebook_size) is not None


def circle_table(servers=16, **kwargs):
    table = HDHashTable(seed=4, dim=DIM, codebook_size=CODEBOOK, **kwargs)
    table.join_many(["srv-{:02d}".format(index) for index in range(servers)])
    return table


class TestKernel:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["circular", "level", "random"])
    def test_walk_equals_reference(self, backend, kind):
        rng = np.random.default_rng(1)
        make = {"circular": circular_basis, "level": level_basis}.get(
            kind, lambda count, dim, rng: random_basis(count, dim, rng)
        )
        codebook = make(96, 640, rng).packed()
        memory = codebook[rng.choice(96, 12, replace=False)].copy()
        memory[3] ^= rng.integers(0, 256, memory.shape[1], dtype=np.uint8)
        steps = circle_steps(as_words(codebook), backend)
        distances, slots, best = reference(codebook, memory)
        assert np.array_equal(
            circle_hamming_words(steps, as_words(memory), backend), distances
        )
        indices, nearest = nearest_rows_circle(steps, as_words(memory), backend)
        assert np.array_equal(indices, slots)
        assert np.array_equal(nearest, best)

    def test_one_row_and_one_position(self):
        rng = np.random.default_rng(2)
        codebook = circular_basis(64, 512, rng).packed()
        row = codebook[17:18] ^ np.uint8(0x81)
        steps = circle_steps(as_words(codebook))
        indices, nearest = nearest_rows_circle(steps, as_words(row))
        distances, __, __ = reference(codebook, row)
        assert indices.tolist() == [0] * 64
        assert np.array_equal(nearest, distances[0])
        single = circle_steps(as_words(codebook[:1]))
        assert single.size == 0 and single.count == 1
        assert np.array_equal(
            circle_hamming_words(single, as_words(row)), reference(codebook[:1], row)[0]
        )

    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 12, 32 << 20])
    def test_ties_break_toward_the_earliest_row_across_chunks(self, chunk_bytes):
        rng = np.random.default_rng(3)
        codebook = circular_basis(128, 512, rng).packed()
        rows = codebook[[5, 40, 90]]
        # Each row twice, the copies later: every position ties.
        memory = np.concatenate([rows, rows, rows[::-1]])
        steps = circle_steps(as_words(codebook))
        indices, nearest = nearest_rows_circle(
            steps, as_words(memory), chunk_bytes=chunk_bytes
        )
        __, slots, best = reference(codebook, memory)
        assert np.array_equal(indices, slots)
        assert np.array_equal(nearest, best)
        assert indices.max() < 3  # never a later copy

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_bytes", [1 << 20, 4 << 20, 32 << 20])
    def test_intermediates_stay_within_the_chunk_budget(self, backend, chunk_bytes):
        rng = np.random.default_rng(4)
        codebook = as_words(circular_basis(1_024, 4_096, rng).packed())
        memory = codebook[rng.choice(1_024, 48, replace=False)].copy()
        steps = circle_steps(codebook, backend)
        tracemalloc.start()
        try:
            nearest_rows_circle(steps, memory, backend, chunk_bytes=chunk_bytes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= chunk_bytes


class TestTableFill:
    def test_pristine(self):
        table = circle_table()
        assert walked(table)
        assert_table_exact(table)

    @pytest.mark.parametrize("seed", range(4))
    def test_bursts_on_rows(self, seed):
        rng = np.random.default_rng(seed)
        table = circle_table()
        table._position_owners()
        for __ in range(3):
            FaultInjector(table.memory_regions()).inject(
                BurstError(length=int(rng.integers(1, 200))), rng
            )
            assert_table_exact(table)
        table._reset_memo()  # and a cold fill over the corrupted rows
        assert_table_exact(table)

    def test_exposed_and_corrupted_codebook(self):
        rng = np.random.default_rng(5)
        table = circle_table(expose_codebook=True)
        table._position_owners()
        before = table._circle_steps
        (codebook,) = [
            region for region in table.memory_regions() if region.name == "codebook"
        ]
        for model in (BurstError(length=300), SingleBitFlips(40)):
            FaultInjector([codebook]).inject(model, rng)
            assert_table_exact(table)
        # The differences were re-derived from the corrupted codebook.
        live = circle_steps(table._codebook_words, table.item_memory.backend)
        assert table._circle_steps is not before
        for got, want in zip(table._circle_steps, live):
            assert np.array_equal(got, want)

    def test_join_column_after_codebook_corruption(self):
        # A join reads the joiner's column: the differences it walks
        # must be current with the corrupted codebook.
        rng = np.random.default_rng(6)
        table = circle_table(expose_codebook=True)
        table._position_owners()
        FaultInjector(table.memory_regions()[1:]).inject(BurstError(length=500), rng)
        table.join("late")
        assert_table_exact(table)

    def test_challenge_column_after_codebook_corruption(self):
        rng = np.random.default_rng(10)
        table = circle_table(expose_codebook=True)
        table._position_owners()
        FaultInjector(table.memory_regions()[1:]).inject(BurstError(length=500), rng)
        words = np.arange(CODEBOOK, dtype=np.uint64)
        distances, __, __ = reference(
            table._codebook_packed, table.item_memory.memory_view()
        )
        assert np.array_equal(table._delta_challenge("srv-03", words), -distances[3])

    def test_level_codebook(self):
        rng = np.random.default_rng(7)
        codebook = level_basis(CODEBOOK, DIM, rng)
        table = HDHashTable(codebook=codebook, require_circular=False)
        table.join_many(["srv-{}".format(index) for index in range(12)])
        assert walked(table)
        assert_table_exact(table)

    def test_random_codebook_takes_the_sweep(self, monkeypatch):
        rng = np.random.default_rng(8)
        codebook = random_basis(CODEBOOK, DIM, rng)
        table = HDHashTable(codebook=codebook, require_circular=False)
        table.join_many(["srv-{}".format(index) for index in range(12)])

        def no_walk(*args, **kwargs):
            raise AssertionError("a random codebook must take the sweep")

        monkeypatch.setattr(hd_module, "nearest_rows_circle", no_walk)
        monkeypatch.setattr(hd_module, "circle_hamming_words", no_walk)
        assert not walked(table)
        assert_table_exact(table)
        table.join("late")
        assert_table_exact(table)

    def test_one_row(self):
        table = circle_table(servers=1)
        assert walked(table)
        assert_table_exact(table)
        assert (table._position_owners() == 0).all()

    def test_distance_ties(self):
        table = circle_table(servers=6)
        table._position_owners()
        rows = table.item_memory.memory_view()
        rows[4] = rows[1]  # row 4 now ties row 1 everywhere
        rows[5] = rows[0]
        assert_table_exact(table)
        assert not np.isin([4, 5], table._position_owners()).any()
        table._reset_memo()
        assert_table_exact(table)

    def test_few_unknown_positions_take_the_sweep(self, monkeypatch):
        table = circle_table()
        calls = []
        original = hd_module.nearest_rows_circle

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(hd_module, "nearest_rows_circle", spy)
        table.route_batch(np.arange(3, dtype=np.uint64))
        assert calls == []
        table._position_owners()  # one walk fills every unknown position
        assert calls == [1]
        table._position_owners()
        table.route_batch(np.arange(CODEBOOK, dtype=np.uint64))
        assert calls == [1]  # ...and none is inferred again

    def test_restore_rebuilds_the_differences(self):
        table = circle_table(expose_codebook=True)
        table._position_owners()
        table._codebook_packed[9, 0] ^= np.uint8(0xFF)  # corrupt, then snapshot
        twin = DynamicHashTable.from_state(table.state_dict())
        assert twin._circle_steps is None
        assert_table_exact(twin)
        live = circle_steps(twin._codebook_words, twin.item_memory.backend)
        for got, want in zip(twin._circle_steps, live):
            assert np.array_equal(got, want)
        table._restore(twin.state_dict())
        assert table._circle_steps is None
        assert_table_exact(table)

    def test_explicit_codebook_restore(self):
        rng = np.random.default_rng(9)
        vectors = circular_basis(CODEBOOK, DIM, rng).vectors
        table = HDHashTable(codebook=BasisSet("circular", vectors))
        table.join_many(["a", "b", "c"])
        twin = DynamicHashTable.from_state(table.state_dict())
        assert walked(twin)
        assert_table_exact(twin)
