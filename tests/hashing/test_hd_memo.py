"""HD's position memo answers exactly what Eq. 2 inference would.

:class:`~repro.hashing.HDHashTable` routes from a per-position memo:
the winning item-memory row and its Hamming distance for every circle
position.  The memo is kept current incrementally (join columns, leave
re-queries, repairs after memory changes), so these oracles drive
seeded random schedules of every way the table's state can change and,
after every step, compare each routing surface -- ``route_batch``,
``route_word``, ``_delta_scores``, ``infer_batch``, the position
owners and every memo entry -- with a brute-force sweep over the live
memory, on a small circle that sweeps and on one large enough for
join columns and cold fills to walk the codebook's differences.
"""

import numpy as np
import pytest

from repro.hashing import HDHashTable
from repro.hashing import hd as hd_module
from repro.hashing.base import DynamicHashTable
from repro.hdc import BasisSet
from repro.hdc.packing import hamming_packed_matrix
from repro.memory import BurstError, FaultInjector, SingleBitFlips

#: Small enough that a brute-force sweep after every step stays cheap.
DIM, CODEBOOK = 512, 64


def sweep(table, words):
    """``(slots, distances)`` by brute force over the live memory.

    Independent of the table's kernels: all-pairs Hamming distances
    between the packed codebook rows routing reads and the live
    item-memory rows, first minimum per word.
    """
    positions = (
        np.asarray(words, dtype=np.uint64) % np.uint64(table.codebook_size)
    ).astype(np.int64)
    distances = hamming_packed_matrix(
        table._codebook_packed[positions], table.item_memory.memory_view()
    )
    slots = distances.argmin(axis=1)
    return slots, distances[np.arange(slots.size), slots]


def assert_memo_exact(table, words):
    slots, distances = sweep(table, words)
    # A partial batch first, so entries are also inferred on first use.
    head = words[: words.size // 4]
    assert np.array_equal(table.route_batch(head), slots[: head.size])
    assert np.array_equal(table.route_batch(words), slots)
    assert [table.route_word(int(word)) for word in words[:32]] == (
        slots[:32].tolist()
    )
    assert np.array_equal(table._delta_scores(words), -distances)
    inferred_slots, inferred_distances = table.infer_batch(words)
    assert np.array_equal(inferred_slots, slots)
    assert np.array_equal(inferred_distances, distances)
    positions = np.arange(table.codebook_size)
    owners, owner_distances = sweep(table, positions)
    assert np.array_equal(table._position_owners(), owners)
    # Every memo entry, filled by inference or by the circle walk.
    memo_slots, memo_distances = table._memo()
    inferred_slots, inferred_distances = table.infer_batch(positions)
    assert np.array_equal(memo_slots, owners)
    assert np.array_equal(memo_distances, owner_distances)
    assert np.array_equal(inferred_slots, owners)
    assert np.array_equal(inferred_distances, owner_distances)


def fresh_table(expose_codebook):
    return HDHashTable(
        seed=9, dim=DIM, codebook_size=CODEBOOK, expose_codebook=expose_codebook
    )


def run_random_schedule(table, words, rng, max_servers=24):
    """Random joins, leaves, faults, snapshots and edits, with the memo
    checked against the brute-force sweep after every step."""
    next_id = 0

    def fresh_ids(count):
        nonlocal next_id
        ids = ["srv-{:03d}".format(next_id + index) for index in range(count)]
        next_id += count
        return ids

    table.join_many(fresh_ids(6))
    assert_memo_exact(table, words)
    steps = [
        "join",
        "leave",
        "join_many",
        "leave_many",
        "burst",
        "flips",
        "snapshot",
        "edit",
        "cold",
    ]
    seen = set()
    for __ in range(80):
        step = steps[int(rng.integers(len(steps)))]
        members = list(table.server_ids)
        if step == "join" and len(members) < max_servers:
            table.join(fresh_ids(1)[0])
        elif step == "leave" and len(members) > 1:
            table.leave(members[int(rng.integers(len(members)))])
        elif step == "join_many" and len(members) < max_servers - 4:
            table.join_many(fresh_ids(int(rng.integers(2, 5))))
        elif step == "leave_many" and len(members) > 3:
            picks = rng.choice(len(members), size=2, replace=False)
            table.leave_many([members[index] for index in picks])
        elif step == "burst":
            FaultInjector(table.memory_regions()).inject(
                BurstError(length=int(rng.integers(1, 48))), rng
            )
        elif step == "flips":
            FaultInjector(table.memory_regions()).inject(
                SingleBitFlips(int(rng.integers(1, 64))), rng
            )
        elif step == "snapshot":
            table = DynamicHashTable.from_state(table.state_dict())
        elif step == "edit":
            rows = table.item_memory.memory_view()
            row = int(rng.integers(rows.shape[0]))
            rows[row, int(rng.integers(rows.shape[1]))] ^= np.uint8(
                rng.integers(1, 256)
            )
        elif step == "cold":
            table._reset_memo()  # every entry unknown, then one fill
            table._position_owners()
        else:
            continue
        seen.add(step)
        assert_memo_exact(table, words)
    assert seen == set(steps)


class TestMemoMatchesSweep:
    @pytest.mark.parametrize("expose_codebook", [False, True])
    def test_random_schedule(self, expose_codebook):
        rng = np.random.default_rng(41)
        words = rng.integers(0, 2**64, 1_500, dtype=np.uint64)
        run_random_schedule(fresh_table(expose_codebook), words, rng)

    @pytest.mark.parametrize("expose_codebook", [False, True])
    def test_random_schedule_on_a_walked_circle(self, expose_codebook, monkeypatch):
        # A circle large enough for join columns and cold fills to walk
        # the codebook's differences instead of sweeping it.
        walks = {"fill": 0, "column": 0}

        def counting(name, kernel):
            def spy(*args, **kwargs):
                walks[name] += 1
                return kernel(*args, **kwargs)

            return spy

        for name, attribute in (
            ("fill", "nearest_rows_circle"),
            ("column", "circle_hamming_words"),
        ):
            kernel = getattr(hd_module, attribute)
            monkeypatch.setattr(hd_module, attribute, counting(name, kernel))
        rng = np.random.default_rng(43)
        words = rng.integers(0, 2**64, 1_500, dtype=np.uint64)
        table = HDHashTable(
            seed=9, dim=1_024, codebook_size=1_024, expose_codebook=expose_codebook
        )
        run_random_schedule(table, words, rng, max_servers=16)
        assert walks["fill"] and walks["column"]

    def test_fault_restored_behind_the_table(self):
        # The misroute probe of the serving benchmark: corrupt, route,
        # put the clean bytes back, route again -- both answers exact.
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, 1_000, dtype=np.uint64)
        table = fresh_table(True)
        table.join_many(["a", "b", "c", "d", "e"])
        table.route_batch(words)
        injector = FaultInjector(table.memory_regions())
        clean = injector.snapshot()
        injector.inject(BurstError(length=200), rng)
        assert_memo_exact(table, words)
        injector.restore(clean)
        assert_memo_exact(table, words)

    def test_edited_row_wins_what_it_now_reaches(self):
        # Overwrite the earliest row with a later row's bits: it now ties
        # that row everywhere and takes all its positions on the
        # earliest-row tie-break -- wins the repair must find.
        words = np.arange(CODEBOOK, dtype=np.uint64)
        table = fresh_table(False)
        table.join_many(["a", "b", "c", "d"])
        table.route_batch(words)
        rows = table.item_memory.memory_view()
        rows[0] = rows[2]
        assert_memo_exact(table, words)
        assert 2 not in table.route_batch(words)
        # ...and a row moved onto a free position's codebook entry wins it.
        occupied = {table.position_of(server) for server in "abcd"}
        target = next(
            int(p)
            for p in np.flatnonzero(table.route_batch(words) != 3)
            if p not in occupied
        )
        rows[3] = table._codebook_packed[target]
        assert_memo_exact(table, words)
        assert table.route_word(target) == 3

    @pytest.mark.parametrize("change", ["join", "leave"])
    def test_fault_then_membership_change_before_any_route(self, change):
        rng = np.random.default_rng(12)
        words = rng.integers(0, 2**64, 1_000, dtype=np.uint64)
        table = fresh_table(False)
        table.join_many(["a", "b", "c", "d", "e", "f"])
        table.route_batch(words)
        table.item_memory.memory_view()[1] = table._codebook_packed[40]
        if change == "join":
            table.join("g")
        else:
            table.leave("e")
        assert_memo_exact(table, words)

    def test_restore_that_changes_only_the_codebook(self):
        # Same servers on the same positions, one codebook row changed:
        # the item memory is identical, so only the restore itself can
        # tell the memo its answers are stale.
        words = np.arange(CODEBOOK, dtype=np.uint64)
        table = fresh_table(False)
        table.join_many(["a", "b", "c"])
        table.route_batch(words)
        occupied = {table.position_of(server) for server in "abc"}
        free = next(p for p in range(CODEBOOK) if p not in occupied)
        vectors = table.codebook.vectors.copy()
        vectors[free] = vectors[table.position_of("b")]
        twin = HDHashTable(
            seed=9,
            dim=DIM,
            codebook_size=CODEBOOK,
            codebook=BasisSet("circular", vectors),
        )
        twin.join_many(["a", "b", "c"])
        table._restore(twin.state_dict())
        assert_memo_exact(table, words)
        assert table.route_word(free) == table.server_ids.index("b")

    def test_every_entry_known_after_position_owners(self):
        table = fresh_table(False)
        table.join_many(["a", "b", "c"])
        table.route_batch(np.arange(3, dtype=np.uint64))
        slots, distances = table._memo()
        assert (slots[3:] == -1).all()  # only the routed positions
        table._position_owners()
        assert (slots >= 0).all() and (distances >= 0).all()


class TestMemoFaultExposure:
    """The memo is memory lookups read, kept out of ``memory_regions()``.

    perfbench's burst and the Figure 5 campaigns draw seeded flips over
    the flat address space of ``memory_regions()``; an int64 memo there
    would dominate that space and move every seeded burst.  What one
    flipped memo entry costs is measured here instead, at the paper's
    4,096-position circle.
    """

    @staticmethod
    def paper_circle_table(servers=64):
        table = HDHashTable(seed=2, dim=1_024, codebook_size=4_096)
        table.join_many(["srv-{:02d}".format(index) for index in range(servers)])
        return table

    def test_regions_do_not_include_the_memo(self):
        table = self.paper_circle_table()
        table.route_batch(np.arange(table.codebook_size, dtype=np.uint64))
        assert [region.name for region in table.memory_regions()] == [
            "item_memory"
        ]

    def test_one_flipped_slot_entry_misroutes_one_position(self):
        table = self.paper_circle_table()
        positions = np.arange(table.codebook_size, dtype=np.uint64)
        clean = table.route_batch(positions)
        target = int(np.flatnonzero(clean < table.server_count - 1)[0])
        table._memo_slots[target] ^= 1  # stays a valid slot
        routed = table.route_batch(positions)
        assert np.flatnonzero(routed != clean).tolist() == [target]
        # Keys spread uniformly over positions, so 1/4,096 of them move.
        words = np.random.default_rng(5).integers(0, 2**64, 1 << 20, dtype=np.uint64)
        moved = (table.route_batch(words) != clean[words % np.uint64(4_096)]).mean()
        assert moved == pytest.approx(1 / 4_096, rel=0.1)

    def test_one_flipped_distance_entry_misplaces_at_most_one_position(self):
        # A wrong stored distance misleads only the strict-win test of
        # later joins, and only at its own position.
        table = self.paper_circle_table()
        positions = np.arange(table.codebook_size, dtype=np.uint64)
        table.route_batch(positions)
        table._memo_distances[7] ^= 1 << 20  # far above any distance
        table.join("newcomer")
        truth, __ = sweep(table, positions)
        wrong = np.flatnonzero(table.route_batch(positions) != truth)
        newcomer = table.server_count - 1
        assert wrong.tolist() == ([] if truth[7] == newcomer else [7])
