"""Replica routing on fault-injected tables.

Bit flips are the paper's robustness subject, so the replica contract
has to hold on corrupted routing state too: whatever the memory holds,
a row of ``route_replicas_batch`` is ``k`` distinct valid slots that
depend only on the row's word and the table -- not on the other words
in the batch, nor on their order -- and its first column is
``route_batch``.  ``route_word_replicas`` is the one-row form of the
same kernel.

Consistent hashing gets a closer look under both search backends: a
corrupted ring is no longer sorted, and each key's search must still
see only its own key (numpy's ``searchsorted`` over the stored ring
narrows each search with the previous key's answer).  The ``bisect``
backend's batch route must equal the scalar ``route_word``.
"""

import numpy as np
import pytest

from repro.hashing import make_table, registered_algorithms
from repro.memory import BurstError, FaultInjector, SingleBitFlips

LIGHT_CONFIG = {"hd": {"dim": 1_024, "codebook_size": 128}}
N_SERVERS = 16
N_WORDS = 300
K = 3
SEEDS = range(100, 106)
FAULTS = {"burst": BurstError(length=24), "flips": SingleBitFlips(count=4)}
CASES = [(name, {}) for name in sorted(registered_algorithms())] + [
    ("consistent", {"search": "bisect"})
]


def corrupted(name, fault, seed, **config):
    table = make_table(name, seed=seed, **{**LIGHT_CONFIG.get(name, {}), **config})
    for index in range(N_SERVERS):
        table.join("srv-{:02d}".format(index))
    FaultInjector(table.memory_regions()).inject(
        FAULTS[fault], np.random.default_rng(seed)
    )
    return table


def words_for(seed):
    return np.random.default_rng(seed + 1_000).integers(
        0, 2**64, N_WORDS, dtype=np.uint64
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize(
    "name, config", CASES, ids=["-".join([n, *c.values()]) for n, c in CASES]
)
def test_replica_rows_depend_only_on_their_word(name, config, fault, seed):
    table = corrupted(name, fault, seed, **config)
    words = words_for(seed)
    batch = table.route_replicas_batch(words, K)
    assert batch.shape == (N_WORDS, K)
    assert ((batch >= 0) & (batch < N_SERVERS)).all()
    assert all(len(set(row)) == K for row in batch.tolist())
    reversed_rows = table.route_replicas_batch(words[::-1], K)[::-1]
    assert reversed_rows.tolist() == batch.tolist()
    one_row = [table.route_word_replicas(word, K).tolist() for word in words.tolist()]
    assert one_row == batch.tolist()
    assert batch[:, 0].tolist() == table.route_batch(words).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("search", ["count", "bisect"])
def test_consistent_routes_each_key_alone(search, fault, seed):
    table = corrupted("consistent", fault, seed, search=search)
    words = words_for(seed)
    routes = table.route_batch(words).tolist()
    alone = [int(table.route_batch(words[i : i + 1])[0]) for i in range(N_WORDS)]
    assert alone == routes
    assert table.route_batch(words[::-1])[::-1].tolist() == routes
    if search == "bisect":
        assert [table.route_word(word) for word in words.tolist()] == routes
