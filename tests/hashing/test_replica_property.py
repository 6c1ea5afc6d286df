"""Property tests for the replica protocol, over all ten algorithms.

The contract (see :mod:`repro.hashing.base`):

* the ``k`` replicas of a key are pairwise distinct;
* ``lookup_replicas(key, 1)[0] == lookup(key)`` -- the replica set
  degrades to the plain lookup;
* batch rows agree bit-exactly with the per-key walks of
  ``replica_reference``, which share no code with the kernels;
* ``k`` outside ``[1, server_count]`` raises a clear
  :class:`~repro.errors.ReplicaCountError`.
"""

import numpy as np
import pytest

from repro.errors import EmptyTableError, ReplicaCountError
from repro.hashing import make_table, registered_algorithms
from repro.hashing.hd import HDHashTable

from .replica_reference import reference_replicas

LIGHT_CONFIG = {"hd": {"dim": 1_024, "codebook_size": 128}}
N_SERVERS = 10
ALGORITHMS = sorted(registered_algorithms())


def build(name, n_servers=N_SERVERS, seed=3):
    table = make_table(name, seed=seed, **LIGHT_CONFIG.get(name, {}))
    for index in range(n_servers):
        table.join("srv-{:02d}".format(index))
    return table


@pytest.fixture(scope="module")
def words():
    return np.random.default_rng(11).integers(
        0, 2**64, 600, dtype=np.uint64
    )


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("k", [1, 2, 3, N_SERVERS])
class TestReplicaContract:
    def test_replicas_pairwise_distinct(self, name, k, words):
        table = build(name)
        batch = table.route_replicas_batch(words, k)
        assert batch.shape == (words.size, k)
        for row in batch.tolist():
            assert len(set(row)) == k
            assert all(0 <= slot < N_SERVERS for slot in row)

    def test_batch_matches_scalar_bit_exactly(self, name, k, words):
        table = build(name)
        batch = table.route_replicas_batch(words, k)
        for index in range(0, words.size, 23):
            scalar = reference_replicas(table, int(words[index]), k)
            assert scalar.tolist() == batch[index].tolist()

    def test_first_replica_is_the_route(self, name, k, words):
        table = build(name)
        batch = table.route_replicas_batch(words, k)
        assert np.array_equal(batch[:, 0], table.route_batch(words))


@pytest.mark.parametrize("name", ALGORITHMS)
class TestReplicaLookups:
    def test_top1_equals_lookup(self, name):
        table = build(name)
        for key in ("alpha", 42, b"raw", "user:17"):
            assert table.lookup_replicas(key, 1)[0] == table.lookup(key)

    def test_lookup_replicas_returns_members(self, name):
        table = build(name)
        replicas = table.lookup_replicas("user:1", 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        assert set(replicas) <= set(table.server_ids)

    def test_lookup_replicas_batch_matches_scalar(self, name):
        table = build(name)
        keys = ["key:{}".format(index) for index in range(40)]
        batch = table.lookup_replicas_batch(keys, 3)
        assert batch.shape == (40, 3)
        for index in (0, 13, 39):
            assert tuple(batch[index]) == table.lookup_replicas(
                keys[index], 3
            )

    def test_replica_sets_survive_churn_determinism(self, name, words=None):
        first = build(name)
        second = build(name)
        for table in (first, second):
            table.leave("srv-03")
            table.join("late")
        probe = np.arange(200, dtype=np.uint64)
        assert np.array_equal(
            first.route_replicas_batch(probe, 3),
            second.route_replicas_batch(probe, 3),
        )


@pytest.mark.parametrize("name", ALGORITHMS)
class TestReplicaCountErrors:
    def test_k_above_pool_size_raises_clearly(self, name):
        table = build(name)
        with pytest.raises(ReplicaCountError, match="distinct replicas"):
            table.lookup_replicas("key", N_SERVERS + 1)
        with pytest.raises(ReplicaCountError):
            table.route_replicas_batch(np.arange(4, dtype=np.uint64), 99)

    def test_k_below_one_raises(self, name):
        table = build(name)
        with pytest.raises(ReplicaCountError, match="at least one"):
            table.lookup_replicas("key", 0)

    def test_replica_count_error_is_a_value_error(self, name):
        table = build(name)
        with pytest.raises(ValueError):
            table.lookup_replicas("key", N_SERVERS + 1)

    def test_empty_table_raises_empty_error(self, name):
        table = make_table(name, seed=3, **LIGHT_CONFIG.get(name, {}))
        with pytest.raises(EmptyTableError):
            table.route_replicas_batch(np.arange(4, dtype=np.uint64), 1)


class TestHDKernelDispatch:
    """Acceptance: HD replica batches go through the packed-word top-k
    kernel -- one deduped sweep, no per-key Python loop."""

    def test_one_kernel_call_per_batch_deduped(self, monkeypatch):
        table = build("hd")
        assert isinstance(table, HDHashTable)
        calls = []
        memory = table.item_memory
        wrapped = memory.query_top_k_words

        def counting(query_words, k, **kwargs):
            calls.append(np.atleast_2d(query_words).shape[0])
            return wrapped(query_words, k, **kwargs)

        monkeypatch.setattr(memory, "query_top_k_words", counting)
        words = np.random.default_rng(5).integers(
            0, 2**64, 5_000, dtype=np.uint64
        )
        table.route_replicas_batch(words, 3)
        assert len(calls) == 1  # one kernel sweep for the whole batch
        assert calls[0] <= 128  # deduped onto unique circle positions

    def test_scalar_and_batch_share_tie_breaks(self):
        # Same kernel on both paths: spot-check a word whose circle
        # position collides across many requests.
        table = build("hd")
        word = 1234567
        scalar = table.route_word_replicas(word, 5)
        batch = table.route_replicas_batch(
            np.full(7, word, dtype=np.uint64), 5
        )
        for row in batch:
            assert row.tolist() == scalar.tolist()
