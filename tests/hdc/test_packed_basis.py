"""The packed basis builders against Algorithm 1's per-step construction.

``reference_level`` and ``reference_circular`` below are the byte-per-bit
constructions the builders replaced: one ``flipped`` transformation per
step, XORed onto the previous vector, with a FIFO queue for the
circular backward phase.  The packed builders must produce exactly their
rows (packed), leave the generator in exactly their final state, and so
leave every table, snapshot and encoder built on a basis unchanged.
"""

from collections import deque

import numpy as np
import pytest

from repro.experiments.tables import TableBuilder
from repro.hashfn import HashFamily
from repro.hashing import DynamicHashTable, HDHashTable, make_table
from repro.hdc import (
    BasisSet,
    circular_basis,
    circular_hypervectors,
    flipped,
    level_basis,
    level_hypervectors,
    pack_bits,
    random_basis,
    random_hypervector,
    random_hypervectors,
    row_bytes,
    transformation_flip_counts,
)
from repro.hdc.periodic import PeriodicEncoder

DIMS = (1, 63, 64, 65, 100, 2_048, 10_000)
COUNTS = (1, 2, 3, 5, 4, 16)
SEEDS = (0, 1, 7)


def reference_level(count, dim, rng, total_flips=None):
    vectors = np.empty((count, dim), dtype=np.uint8)
    vectors[0] = random_hypervector(dim, rng)
    if count == 1:
        return vectors
    flips = transformation_flip_counts(count - 1, dim, total=total_flips)
    for index in range(1, count):
        t = flipped(dim, flips[index - 1], rng)
        vectors[index] = np.bitwise_xor(vectors[index - 1], t)
    return vectors


def reference_circular(count, dim, rng, total_flips=None):
    if count == 1:
        return random_hypervectors(1, dim, rng)
    if count == 2:
        first = random_hypervector(dim, rng)
        t = flipped(dim, total_flips if total_flips is not None else dim // 2, rng)
        return np.stack([first, np.bitwise_xor(first, t)])
    if count % 2:
        doubled = reference_circular(2 * count, dim, rng, total_flips)
        return np.ascontiguousarray(doubled[::2])
    half = count // 2
    vectors = np.empty((count, dim), dtype=np.uint8)
    vectors[0] = random_hypervector(dim, rng)
    queue = deque()
    flips = transformation_flip_counts(half, dim, total=total_flips)
    for index in range(1, half + 1):
        t = flipped(dim, flips[index - 1], rng)
        vectors[index] = np.bitwise_xor(vectors[index - 1], t)
        queue.append(t)
    for index in range(half + 1, count):
        vectors[index] = np.bitwise_xor(vectors[index - 1], queue.popleft())
    return vectors


def reference_random(count, dim, rng, total_flips=None):
    return random_hypervectors(count, dim, rng)


def build_random(count, dim, rng, total_flips=None):
    return random_basis(count, dim, rng)


BUILDERS = {
    "random": (build_random, reference_random),
    "level": (level_basis, reference_level),
    "circular": (circular_basis, reference_circular),
}


def byte_wise(vectors):
    """Pack bit ``p`` into bit ``p & 7`` of byte ``p >> 3``, one bit at a
    time: the layout spelled out, independent of ``np.packbits``."""
    count, dim = vectors.shape
    rows = np.zeros((count, row_bytes(dim)), dtype=np.uint8)
    for position in range(dim):
        rows[:, position >> 3] |= vectors[:, position] << (position & 7)
    return rows


def build_both(kind, count, dim, seed, total):
    build, reference = BUILDERS[kind]
    rng = np.random.default_rng(seed)
    basis = build(count, dim, rng, total)
    reference_rng = np.random.default_rng(seed)
    expected = reference(count, dim, reference_rng, total)
    return basis, rng, expected, reference_rng


class TestBuildersMatchTheReference:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_rows_and_generator_state(self, kind, dim):
        for count in COUNTS:
            for total in (None, dim // 3 + 1):
                for seed in SEEDS:
                    basis, rng, expected, reference_rng = build_both(
                        kind, count, dim, seed, total
                    )
                    assert basis.kind == kind
                    assert (basis.count, basis.dim) == (count, dim)
                    assert np.array_equal(basis.packed(), pack_bits(expected))
                    assert np.array_equal(basis.vectors, expected)
                    assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("count", COUNTS)
    def test_raw_arrays(self, count):
        for total in (None, 40):
            for build, reference in (
                (level_hypervectors, reference_level),
                (circular_hypervectors, reference_circular),
            ):
                got = build(count, 100, np.random.default_rng(count), total)
                want = reference(count, 100, np.random.default_rng(count), total)
                assert got.dtype == np.uint8 and got.flags.writeable
                assert np.array_equal(got, want)

    def test_paper_config(self):
        basis, rng, expected, reference_rng = build_both(
            "circular", 4_096, 10_000, 0, None
        )
        assert np.array_equal(basis.packed(), pack_bits(expected))
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_next_draw_is_unchanged(self):
        basis, rng, __, reference_rng = build_both("circular", 64, 1_000, 3, None)
        assert np.array_equal(
            rng.integers(0, 2**63, 16), reference_rng.integers(0, 2**63, 16)
        )

    def test_too_many_flips_still_rejected(self):
        for build in (level_basis, circular_basis):
            with pytest.raises(ValueError):
                build(2, 8, np.random.default_rng(0), 9)


class TestPackedLayout:
    @pytest.mark.parametrize("dim", (1, 7, 63, 64, 65, 100, 130))
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_byte_wise_bits_and_zero_pad(self, kind, dim):
        basis, __, expected, __ = build_both(kind, 6, dim, 5, None)
        packed = basis.packed()
        assert packed.dtype == np.uint8 and packed.shape == (6, row_bytes(dim))
        assert np.array_equal(packed, byte_wise(expected))
        every_bit = np.unpackbits(packed, axis=1, bitorder="little")
        assert not every_bit[:, dim:].any()

    def test_from_packed_clears_pad_bits_and_copies(self):
        expected = reference_circular(8, 70, np.random.default_rng(2))
        rows = pack_bits(expected)
        dirty = rows.copy()
        dirty[:, 8] |= 0b1100_0000  # bits 70 and 71
        dirty[:, 9:] = 0xFF
        basis = BasisSet.from_packed("circular", dirty, 70)
        assert np.array_equal(basis.packed(), rows)
        assert np.array_equal(basis.vectors, expected)
        dirty[:] = 0
        assert np.array_equal(basis.packed(), rows)
        with pytest.raises(ValueError):
            basis.packed()[0, 0] = 1

    def test_from_packed_checks_the_row_width(self):
        with pytest.raises(ValueError):
            BasisSet.from_packed("circular", np.zeros((2, 8), np.uint8), 65)

    def test_unpacked_views_are_read_only(self):
        basis = circular_basis(8, 100, np.random.default_rng(1))
        for view in (basis.vectors, basis[3], basis[2:5]):
            with pytest.raises(ValueError):
                view[0] = 1
        assert np.array_equal(basis[2:5], basis.vectors[2:5])
        assert np.array_equal(basis[-1], basis.vectors[-1])


# -- what is built on a basis --------------------------------------------------

DIM, CODEBOOK = 1_000, 256


def reference_codebook(seed):
    """The derived codebook of an HD table with family seed ``seed``."""
    family = HashFamily(seed=seed).derive("codebook")
    return reference_circular(CODEBOOK, DIM, np.random.default_rng(family.seed))


def assert_states_equal(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], dict):
            assert_states_equal(got[key], want[key])
        elif isinstance(want[key], np.ndarray):
            assert np.array_equal(got[key], want[key])
        else:
            assert got[key] == want[key]


class TestSnapshots:
    WORDS = np.arange(4 * CODEBOOK, dtype=np.uint64) * np.uint64(2_654_435_761)

    def populated(self, **config):
        table = make_table("hd", seed=5, dim=DIM, codebook_size=CODEBOOK, **config)
        table.join_many(["a", "b", "c", "d", "e"])
        return table

    def round_trips(self, table):
        state = table.state_dict()
        twin = DynamicHashTable.from_state(state)
        assert_states_equal(twin.state_dict(), state)
        words = self.WORDS
        assert np.array_equal(twin.route_batch(words), table.route_batch(words))
        return state

    def test_derived(self):
        table = self.populated()
        state = self.round_trips(table)
        payload = state["payload"]
        assert payload["codebook"] == {"mode": "derived"}
        assert payload["codebook_packed"] is None
        expected = pack_bits(reference_codebook(5))
        positions = [position for __, position in payload["positions"]]
        assert np.array_equal(payload["memory_rows"], expected[positions])

    def test_explicit(self):
        vectors = reference_circular(CODEBOOK, DIM, np.random.default_rng(11))
        table = self.populated(codebook=BasisSet("circular", vectors))
        state = self.round_trips(table)
        codebook = state["payload"]["codebook"]
        assert codebook["mode"] == "explicit" and codebook["kind"] == "circular"
        assert np.array_equal(codebook["packed"], pack_bits(vectors))
        assert state["payload"]["codebook_packed"] is None

    def test_diverged(self):
        table = self.populated(expose_codebook=True)
        region = table.memory_regions()[1]
        assert region.name == "codebook"
        region.array[17, 3] ^= 0b0010_0000
        state = self.round_trips(table)
        expected = pack_bits(reference_codebook(5))
        expected[17, 3] ^= 0b0010_0000
        assert np.array_equal(state["payload"]["codebook_packed"], expected)

    def test_a_payload_of_reference_rows_restores(self):
        # What a snapshot of an explicit codebook built per step holds.
        vectors = reference_circular(CODEBOOK, DIM, np.random.default_rng(12))
        table = self.populated(codebook=BasisSet("circular", vectors))
        state = table.state_dict()
        state["payload"]["codebook"]["packed"] = pack_bits(vectors)
        twin = DynamicHashTable.from_state(state)
        assert np.array_equal(twin.codebook.vectors, vectors)
        words = self.WORDS
        assert np.array_equal(twin.route_batch(words), table.route_batch(words))


class TestWhatIsBuiltOnABasis:
    def test_periodic_encoder(self):
        encoder = PeriodicEncoder(24.0, 24, 2_048, np.random.default_rng(6))
        vectors = reference_circular(24, 2_048, np.random.default_rng(6))
        assert np.array_equal(encoder.basis.vectors, vectors)
        assert np.array_equal(encoder._memory.memory_view(), pack_bits(vectors))
        noise = np.random.default_rng(7)
        for node in range(24):
            noisy = vectors[node].copy()
            noisy[noise.choice(2_048, size=300, replace=False)] ^= 1
            nearest = int(np.argmin(np.bitwise_xor(vectors, noisy).sum(axis=1)))
            assert encoder.decode(noisy) == encoder.value_of(nearest)

    def test_table_builder_codebook(self):
        builder = TableBuilder(seed=3, hd_dim=DIM, hd_codebook_size=CODEBOOK)
        basis = builder.codebook()
        assert builder.codebook() is basis
        assert np.array_equal(basis.vectors, reference_codebook(3))

    def test_a_shared_codebook_is_never_written(self):
        builder = TableBuilder(seed=3, hd_dim=DIM, hd_codebook_size=CODEBOOK)
        basis = builder.codebook()
        pristine = basis.packed().copy()
        shared = [builder.build("hd") for __ in range(3)]
        exposed = HDHashTable(seed=3, codebook=basis, expose_codebook=True)
        for index, table in enumerate(shared + [exposed]):
            table.join_many(["s{}-{}".format(index, n) for n in range(6)])
            table.route_batch(TestSnapshots.WORDS)
        for table in shared:
            assert table._codebook_packed is basis.packed()
            assert [region.name for region in table.memory_regions()] == ["item_memory"]
        region = exposed.memory_regions()[1]
        assert region.array is not basis.packed() and region.array.flags.writeable
        region.array[:] ^= 0xFF
        exposed.route_batch(TestSnapshots.WORDS)
        assert not basis.packed().flags.writeable
        assert np.array_equal(basis.packed(), pristine)
