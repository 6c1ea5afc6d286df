"""A per-key replica reference, independent of the tables' batch kernels.

Every table routes replicas with one batch kernel
(``_route_replicas_batch``), and ``route_word_replicas`` reads row 0
of a one-row batch.  This module restates each algorithm's replica
rule the slow way, one word at a time, so the replica suites compare
batch rows against something the kernels do not share:

* consistent / bounded-consistent: the next ``k`` distinct servers
  clockwise from the word's ring successor (``_successor_index``);
* multiprobe-consistent: the same walk from the winning probe's ring
  entry (``_best_probe_index``);
* modular: successive hash buckets through the slot indirection;
* maglev: a forward scan of the lookup table;
* hd: the ``k`` nearest item-memory rows by brute-force Hamming
  distance, ties to the earliest row;
* rendezvous / weighted-rendezvous: every server's score, fully
  sorted best first, ties to the lowest slot;
* weighted: the inner table's ranking at each escalation depth, mapped
  to real servers and deduplicated;
* jump / hierarchical: salted rehashes of the word through the scalar
  ``route_word``, skipping servers already chosen.

A walk that ends short is completed lowest slot first.  The references
read the routing state through the scalar search paths, so they agree
with the kernels on pristine tables; on a corrupted consistent ring
the ``count`` backend reads the ring differently from a binary search
(ablation E10 measures that), and the fault-injected tests compare
rows with each other instead.
"""

import numpy as np

from repro.hashing import (
    ConsistentHashTable,
    HDHashTable,
    HierarchicalHashTable,
    JumpHashTable,
    MaglevHashTable,
    ModularHashTable,
    MultiProbeConsistentHashTable,
    RendezvousHashTable,
    VirtualWeightTable,
    WeightedRendezvousHashTable,
)
from repro.hashing.base import _REHASH_ATTEMPTS_PER_REPLICA
from repro.hdc.packing import hamming_packed_matrix

__all__ = ["reference_replicas"]


def _fill(chosen, k, count):
    """Complete ``chosen`` to ``k`` distinct slots, lowest slot first."""
    for slot in range(count):
        if len(chosen) >= k:
            break
        if slot not in chosen:
            chosen.append(slot)
    return chosen[:k]


def _distinct(slots, k, count):
    """The first ``k`` distinct entries of ``slots``, completed."""
    chosen = []
    for slot in slots:
        if slot not in chosen:
            chosen.append(slot)
            if len(chosen) == k:
                break
    return _fill(chosen, k, count)


def _scan(entries, start, k, count):
    """Walk ``entries`` forward from ``start``, each entry modulo the
    pool size, collecting ``k`` distinct slots."""
    size = len(entries)
    return _distinct(
        (int(entries[(start + step) % size]) % count for step in range(size)),
        k,
        count,
    )


def _ranked(keys, k):
    """Slots by ascending ranking key, ties to the lowest slot."""
    return np.argsort(keys, kind="stable")[:k].tolist()


def _salted_rehash(table, word, k):
    chosen = [table.route_word(word)]
    rehash = table.family.derive("replica-exclusion").pair
    for salt in range(_REHASH_ATTEMPTS_PER_REPLICA * k):
        if len(chosen) == k:
            break
        candidate = table.route_word(rehash(word, salt))
        if candidate not in chosen:
            chosen.append(candidate)
    return _fill(chosen, k, table.server_count)


def _hd(table, word, k):
    position = word % table.codebook_size
    distances = hamming_packed_matrix(
        table._codebook_packed[[position]], table.item_memory.memory_view()
    )[0]
    return _ranked(distances, k)


def _weighted(table, word, k):
    inner = table.inner
    slot_map = table._slot_map().tolist()
    chosen = []
    for depth in table._escalation_schedule(k):
        ranking = reference_replicas(inner, word, depth).tolist()
        chosen = []
        for slot in ranking:
            real = slot_map[slot]
            if real not in chosen:
                chosen.append(real)
                if len(chosen) == k:
                    return chosen
    return _fill(chosen, k, table.server_count)


def _replicas(table, word, k):
    count = table.server_count
    if isinstance(table, MultiProbeConsistentHashTable):
        return _scan(table._ring_slots, table._best_probe_index(word), k, count)
    if isinstance(table, ConsistentHashTable):
        return _scan(table._ring_slots, table._successor_index(word), k, count)
    if isinstance(table, ModularHashTable):
        return _scan(table._slot_refs, word % count, k, count)
    if isinstance(table, MaglevHashTable):
        entries = table._materialized()
        return _scan(entries, word % entries.size, k, count)
    if isinstance(table, HDHashTable):
        return _hd(table, word, k)
    if isinstance(table, WeightedRendezvousHashTable):
        scores = table._scores(np.asarray([word], dtype=np.uint64))[:, 0]
        return _ranked(-scores, k)
    if isinstance(table, RendezvousHashTable):
        weights = table._pair_family.pair_vec(table._server_words, np.uint64(word))
        return _ranked(~weights, k)
    if isinstance(table, VirtualWeightTable):
        return _weighted(table, word, k)
    if isinstance(table, (JumpHashTable, HierarchicalHashTable)):
        return _salted_rehash(table, word, k)
    raise TypeError("no replica reference for {!r}".format(table))


def reference_replicas(table, word, k):
    """``k`` distinct slots for ``word``, per the table's replica rule.

    Returns an ``int64`` array, best first, like a row of
    ``route_replicas_batch``.
    """
    return np.asarray(_replicas(table, int(word), k), dtype=np.int64)
