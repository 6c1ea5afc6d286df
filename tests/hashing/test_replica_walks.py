"""The vectorized replica walks against a per-key reference.

The walk-based replica kernels (consistent, modular and maglev over
:meth:`~repro.hashing.base.DynamicHashTable._walk_distinct_batch`, and
the weighted wrapper's fused group-max) are checked row by row against
the per-key walks of ``replica_reference``.  The general replica
contract is covered by ``test_replica_property``; this module stresses
the walk-specific hazards with denser sampling:

* batch == reference bit-exactly at ``k`` in {1, 2, 5} across server
  counts where the walk's masked-advance loop takes very different
  numbers of steps (2 servers forces ``_complete_replicas`` fills;
  33 servers makes virtual-node rings long);
* ``k == server_count`` -- every walk must terminate with a full
  permutation even when nearly every candidate is a duplicate.
"""

import numpy as np
import pytest

from repro.hashing import make_table

from .replica_reference import reference_replicas

WALK_ALGORITHMS = [
    "consistent",
    "modular",
    "maglev",
    "weighted",
    "weighted-rendezvous",
]
CONFIGS = {"maglev": {"table_size": 131}}


def build(name, n_servers, seed):
    table = make_table(name, seed=seed, **CONFIGS.get(name, {}))
    for index in range(n_servers):
        table.join("srv-{:03d}".format(index))
    return table


@pytest.fixture(scope="module")
def words():
    return np.random.default_rng(29).integers(
        0, 2**64, 400, dtype=np.uint64
    )


@pytest.mark.parametrize("name", WALK_ALGORITHMS)
@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("n_servers", [5, 7, 16, 33])
def test_batch_matches_scalar(name, k, n_servers, words):
    if k > n_servers:
        pytest.skip("k exceeds pool")
    table = build(name, n_servers, seed=4)
    batch = table.route_replicas_batch(words, k)
    assert batch.shape == (words.size, k)
    for index, word in enumerate(words.tolist()):
        scalar = reference_replicas(table, word, k)
        assert scalar.tolist() == batch[index].tolist(), (name, k, index)


@pytest.mark.parametrize("name", WALK_ALGORITHMS)
@pytest.mark.parametrize("n_servers", [2, 3, 6])
def test_full_permutation_terminates(name, n_servers, words):
    table = build(name, n_servers, seed=8)
    k = n_servers
    batch = table.route_replicas_batch(words[:100], k)
    for index, row in enumerate(batch.tolist()):
        assert sorted(row) == list(range(n_servers)), (name, index)
        scalar = reference_replicas(table, int(words[index]), k)
        assert scalar.tolist() == row
