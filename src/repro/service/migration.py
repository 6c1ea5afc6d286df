"""Minimal-movement live migration: delta tracking, planning, execution.

The paper's headline claim -- HD hashing remaps a near-minimal fraction
of keys when the server set resizes -- was only ever *counted* in this
repo (the router's per-epoch probe accounting).  This module turns that
accounting into a data plane contract:

* :class:`DeltaTracker` -- the probe-population cache (keys, their
  pre-hashed words, the last assignment) that both :class:`~repro.
  service.router.Router` and :class:`~repro.service.cluster.
  ClusterRouter` previously duplicated.  Closing an epoch routes the
  cached words once (no per-key re-hashing) and diffs the assignment
  vectors array-wide;
* :class:`MigrationPlan` -- the epoch's delta, grouped into
  per-``(source, destination)`` :class:`MoveBatch` es.  The plan and
  the epoch's remap accounting come from the *same* diff, so
  ``len(plan.moves) == record.probes_moved`` holds bit-exactly;
* :class:`MigrationExecutor` -- throttled (max keys and optionally max
  bytes per tick), phased (copy -> verify -> commit) and resumable
  (stop at any tick boundary; :meth:`MigrationExecutor.remaining_plan`
  exports the uncommitted tail for a fresh executor), with a final
  ownership pass asserting every moved key is owned by its new server.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import is_not
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MigrationError
from ..hashfn import Key
from ..store.store import MISSING

__all__ = [
    "DeltaTracker",
    "EpochDelta",
    "KeyMove",
    "MoveBatch",
    "MigrationPlan",
    "MigrationStatus",
    "MigrationExecutor",
]

#: An assignment function: pre-hashed words -> server identifiers
#: (object array), or ``None`` when the pool is empty.
AssignmentLookup = Callable[[np.ndarray], Optional[np.ndarray]]


@dataclass(frozen=True, eq=False)
class EpochDelta:
    """The raw assignment diff one epoch produced over a probe set.

    ``keys``/``sources``/``destinations`` are aligned arrays covering
    exactly the tracked keys whose owner changed; ``tracked`` is the
    full probe population size the fraction is stated over.
    """

    tracked: int
    keys: np.ndarray
    sources: np.ndarray
    destinations: np.ndarray

    @property
    def moved(self) -> int:
        """Number of tracked keys whose assignment changed."""
        return int(self.keys.size)

    @property
    def fraction(self) -> float:
        """Moved fraction of the tracked population (0.0 if untracked)."""
        return self.moved / self.tracked if self.tracked else 0.0

    @classmethod
    def empty(cls, tracked: int = 0) -> "EpochDelta":
        nothing = np.empty(0, dtype=object)
        return cls(
            tracked=tracked, keys=nothing, sources=nothing, destinations=nothing
        )


class DeltaTracker:
    """Caches a probe population and diffs its assignment per epoch.

    The probe keys are hashed to words exactly once, at :meth:`track`
    time; every later epoch is one batched routing pass over the cached
    words plus an array-wide comparison against the previous assignment.
    This is the shared core behind ``Router``'s remap accounting and
    (per shard) ``ClusterRouter``'s fleet-level bill -- and, since the
    diff also names every moved key's old and new owner, behind the
    :class:`MigrationPlan` emitted alongside each epoch record.

    When constructed with the ``table`` it accounts for, two scoped
    closes replace the full recompute where the algorithm allows:

    * *position-grouped*, on algorithms whose routing is a pure
      function of a fixed position set
      (:meth:`~repro.hashing.base.DynamicHashTable._route_positions`,
      HD's circle nodes): :meth:`track` indexes the keys by position,
      and every close -- named or anonymous -- diffs the table's
      position owners against the previous epoch's and moves exactly
      the keys of the positions whose owner changed.  It reads the
      owners the table routes by now, so it stays exact after memory
      faults;
    * *delta-scoped*, on epochs that name their membership events
      (``close(joined=..., left=...)``) over the other algorithms
      exposing the
      :meth:`~repro.hashing.base.DynamicHashTable._delta_scores`
      kernel: the tracker caches every key's winning score, prices a
      join as one score-column sweep (the joiner's challenge against
      the cached winners, strict wins only) and a leave by re-routing
      only the keys the departing servers owned.

    Everything else takes the full recompute; every path produces
    bit-identical :class:`EpochDelta` s.
    """

    def __init__(self, lookup: AssignmentLookup, table=None):
        self._lookup = lookup
        self._table = table
        self._keys: Optional[np.ndarray] = None
        self._words: Optional[np.ndarray] = None
        self._assignment: Optional[np.ndarray] = None
        self._scores: Optional[np.ndarray] = None
        # Position index: tracked-key indices sorted by position, the
        # positions in that order, and the owner slots and server ids
        # the current assignment was read from.
        self._by_position: Optional[np.ndarray] = None
        self._sorted_positions: Optional[np.ndarray] = None
        self._owners: Optional[np.ndarray] = None
        self._owner_ids: Tuple[Key, ...] = ()

    @property
    def probe_keys(self) -> Optional[np.ndarray]:
        """The tracked population, or ``None`` when accounting is off."""
        return self._keys

    @property
    def tracked(self) -> int:
        """Size of the tracked population (0 when accounting is off)."""
        return 0 if self._keys is None else int(self._keys.size)

    def track(self, keys: np.ndarray, words: np.ndarray) -> None:
        """Install a probe population with its pre-hashed words.

        The baseline assignment is captured immediately (``None`` while
        the pool is empty), so the first epoch closed after tracking
        diffs against the state the population was installed under.
        """
        self._keys = keys
        self._words = words
        self._assignment = self._lookup(words)
        table = self._table
        positions = None if table is None else table._route_positions(words)
        if positions is None:
            self._by_position = self._sorted_positions = None
        else:
            # The narrowest dtype holding every position lets numpy's
            # stable sort run as a radix sort (8x at 4,096 positions).
            narrow = np.min_scalar_type(int(positions.max(initial=0)))
            self._by_position = np.argsort(positions.astype(narrow), kind="stable")
            self._sorted_positions = positions[self._by_position]
        self._refresh_baselines()

    def _refresh_baselines(self) -> None:
        """Re-capture the position owners (position-routed tables) or the
        winning scores (the rest) behind the current assignment
        (``None`` disarms a scoped path until the next full recompute
        refreshes it)."""
        if (
            self._table is None
            or self._words is None
            or self._assignment is None
        ):
            self._scores = None
            self._owners = None
            return
        if self._by_position is None:
            self._scores = self._table._delta_scores(self._words)
        else:
            self._owners = self._table._position_owners()
            self._owner_ids = self._table.server_ids

    def _delta_against(self, current: Optional[np.ndarray]) -> EpochDelta:
        if current is None or self._assignment is None:
            return EpochDelta.empty(self.tracked)
        mask = current != self._assignment
        return EpochDelta(
            tracked=self.tracked,
            keys=self._keys[mask],
            sources=self._assignment[mask],
            destinations=current[mask],
        )

    def close(
        self, joined: Sequence[Key] = (), left: Sequence[Key] = ()
    ) -> EpochDelta:
        """Diff the epoch's assignment change and advance the baseline.

        Called once per applied membership epoch (the table has already
        mutated); the returned delta is the single source for both the
        epoch's remap accounting and its migration plan.  Position-routed
        tables close every epoch, named or not, by diffing their
        position owners.  Otherwise, when the epoch's events are named
        and the table exposes the delta-score kernels, the diff is
        delta-scoped: leave epochs re-route only the keys the departing
        servers owned, join epochs sweep each joiner's challenge column
        against the cached winning scores.  Anything else -- anonymous
        closes, algorithms without the kernels, a baseline captured
        over an empty pool -- takes the full batched re-route.
        """
        if self._keys is None or self._keys.size == 0:
            return EpochDelta.empty(self.tracked)
        if self._owners is not None and self._table.server_count:
            return self._close_by_position()
        if (joined or left) and self._scores is not None:
            delta = self._close_scoped(tuple(joined), tuple(left))
            if delta is not None:
                return delta
        current = self._lookup(self._words)
        delta = self._delta_against(current)
        self._assignment = current
        self._refresh_baselines()
        return delta

    def _close_by_position(self) -> EpochDelta:
        """The position-grouped :class:`EpochDelta`.

        A key's owner is its position's owner, so the keys that moved
        are exactly the keys of the positions whose owning *server*
        changed: the previous owner slots are translated to today's
        slots by server id (``-1`` for a server that left) and compared
        with the table's owners.  Costs O(positions + moved keys); the
        moved keys come back in probe order, as the full diff lists
        them.
        """
        table = self._table
        owners = table._position_owners()
        ids = table.server_ids
        before = self._owners
        if ids != self._owner_ids:
            slot_of = {server_id: slot for slot, server_id in enumerate(ids)}
            translate = np.fromiter(
                (slot_of.get(server_id, -1) for server_id in self._owner_ids),
                dtype=np.int64,
                count=len(self._owner_ids),
            )
            before = translate[before]
        changed = np.flatnonzero(owners != before)
        sorted_positions = self._sorted_positions
        starts = np.searchsorted(sorted_positions, changed, side="left")
        counts = np.searchsorted(sorted_positions, changed, side="right") - starts
        total = int(counts.sum())
        # Expand the runs ``[start, start + count)`` into one index array.
        run_offsets = np.cumsum(counts) - counts
        flat = np.arange(total) + np.repeat(starts - run_offsets, counts)
        moved = self._by_position[flat]
        order = np.argsort(moved)
        moved = moved[order]
        moved_positions = sorted_positions[flat[order]]
        destinations = np.asarray(ids, dtype=object)[owners[moved_positions]]
        sources = self._assignment[moved]
        self._assignment[moved] = destinations
        self._owners = owners
        self._owner_ids = ids
        return EpochDelta(
            tracked=self.tracked,
            keys=self._keys[moved],
            sources=sources,
            destinations=destinations,
        )

    def _close_scoped(self, joined, left) -> Optional[EpochDelta]:
        """The delta-scoped :class:`EpochDelta`, or ``None`` to opt out.

        Every kernel call runs before any state mutation, so a
        mid-epoch opt-out (a kernel returning ``None``) falls back to
        the full recompute with nothing half-applied; the apply phase
        is then pure array writes into the cached baseline, with each
        key's pre-epoch owner captured the first time it moves.
        Exactness rests on the minimal-disruption contract of the
        kernels: an incumbent's winning score over a key never changes
        while it stays in the pool, a joiner steals exactly the keys
        it strictly outscores, and a leave only re-routes the departing
        server's keys.  The moved set is therefore exact too -- a
        departed key's owner left, and a captured key's owner was by
        definition not the joiner -- which spares the close both the
        full re-route and the full-population diff.
        """
        table = self._table
        if self._assignment is None or not getattr(table, "server_count", 0):
            return None
        current = self._assignment
        scores = self._scores
        words = self._words
        departed = None
        if left:
            departed = np.zeros(current.shape, dtype=bool)
            cell = np.empty(1, dtype=object)
            for server_id in left:
                cell[0] = server_id
                departed |= current == cell
            if departed.any():
                stranded = words[departed]
                rerouted = self._lookup(stranded)
                restored = table._delta_scores(stranded)
                if rerouted is None or restored is None:
                    return None
            else:
                departed = None
        challenges = []
        for server_id in joined:
            challenge = table._delta_challenge(server_id, words)
            if challenge is None or challenge.shape != scores.shape:
                return None
            challenges.append(challenge)
        # Apply phase: in-place writes only.  ``moved_idx``/``moved_src``
        # collect each moved key's position and pre-epoch owner once.
        moved_idx: List[np.ndarray] = []
        moved_src: List[np.ndarray] = []
        moved = departed
        if departed is not None:
            moved_idx.append(np.nonzero(departed)[0])
            moved_src.append(current[departed])
            current[departed] = rerouted
            scores[departed] = restored
        for server_id, challenge in zip(joined, challenges):
            captured = challenge > scores
            if not captured.any():
                continue
            first = captured if moved is None else captured & ~moved
            if first.any():
                moved_idx.append(np.nonzero(first)[0])
                moved_src.append(current[first])
            # Scatter the (arbitrary hashable) id through a 1-cell
            # object array so sequence-typed ids assign as single
            # elements instead of broadcasting.
            cell = np.empty(1, dtype=object)
            cell[0] = server_id
            current[captured] = cell
            scores[captured] = challenge[captured]
            moved = captured if moved is None else (moved | captured)
        if moved_idx:
            indices = np.concatenate(moved_idx)
            order = np.argsort(indices, kind="stable")
            indices = indices[order]
            sources = np.concatenate(moved_src)[order]
        else:
            indices = np.empty(0, dtype=np.int64)
            sources = current[indices]
        return EpochDelta(
            tracked=self.tracked,
            keys=self._keys[indices],
            sources=sources,
            destinations=current[indices],
        )

    def diff_against(self, lookup: AssignmentLookup) -> EpochDelta:
        """Diff the cached baseline against a *foreign* assignment.

        Does not advance the baseline.  This is the restore path: when a
        shard is swapped in from a snapshot, the keys it strands are the
        ones whose owner under the restored table differs from the owner
        the retired table last assigned.
        """
        if self._keys is None or self._keys.size == 0:
            return EpochDelta.empty(self.tracked)
        return self._delta_against(lookup(self._words))


@dataclass(frozen=True)
class KeyMove:
    """One key's relocation: where it was, where it now belongs."""

    key: Key
    source: Key
    destination: Key


@dataclass(frozen=True)
class MoveBatch:
    """Every key moving between one (source, destination) pair."""

    source: Key
    destination: Key
    keys: Tuple[Key, ...]

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class MigrationPlan:
    """An epoch's key movement, grouped per (source, destination).

    Built from the same :class:`EpochDelta` that priced the epoch's
    remap accounting, so ``plan.total_keys == record.probes_moved`` and
    ``plan.moved_fraction == record.remap_fraction`` hold bit-exactly.
    """

    tracked: int
    batches: Tuple[MoveBatch, ...]
    #: Membership epoch the plan reconciles toward (``None`` for merged
    #: fleet-level plans, whose shards close epochs independently).
    epoch: Optional[int] = None

    @property
    def moves(self) -> Tuple[KeyMove, ...]:
        """The plan flattened to individual key moves, batch order."""
        return tuple(
            KeyMove(key=key, source=batch.source, destination=batch.destination)
            for batch in self.batches
            for key in batch.keys
        )

    @property
    def total_keys(self) -> int:
        """Number of keys the plan moves."""
        return sum(len(batch) for batch in self.batches)

    @property
    def is_empty(self) -> bool:
        return not self.batches

    @property
    def moved_fraction(self) -> float:
        """Moved fraction of the tracked population (0.0 if untracked)."""
        return self.total_keys / self.tracked if self.tracked else 0.0

    def pair_counts(self) -> Dict[Tuple[Key, Key], int]:
        """``(source, destination) -> key count`` for every batch."""
        return {
            (batch.source, batch.destination): len(batch)
            for batch in self.batches
        }

    @classmethod
    def from_delta(
        cls, delta: EpochDelta, epoch: Optional[int] = None
    ) -> "MigrationPlan":
        """Group a raw delta into per-(source, destination) batches.

        Server identifiers are factorized to integer codes (they may be
        arbitrary hashables, so ``np.unique`` on the object arrays is
        not safe), then the grouping is one stable argsort over the
        combined codes -- batches are ordered by their servers' first
        appearance, and keys inside a batch keep probe order.
        """
        if delta.moved == 0:
            return cls(tracked=delta.tracked, batches=(), epoch=epoch)
        # An id seen for the first time takes the next code; the
        # lookups run in C (the counter is called only on a miss).
        codes: Dict[Key, int] = defaultdict(itertools.count().__next__)
        moved = delta.moved
        source_codes = np.fromiter(
            map(codes.__getitem__, delta.sources), dtype=np.int64, count=moved
        )
        destination_codes = np.fromiter(
            map(codes.__getitem__, delta.destinations), dtype=np.int64, count=moved
        )
        combined = source_codes * len(codes) + destination_codes
        order = np.argsort(combined, kind="stable")
        grouped = combined[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        bounds = np.r_[starts, grouped.size]
        batches = []
        for begin, end in zip(bounds[:-1], bounds[1:]):
            rows = order[begin:end]
            batches.append(
                MoveBatch(
                    source=delta.sources[rows[0]],
                    destination=delta.destinations[rows[0]],
                    # ``tolist`` unboxes numpy scalars to builtins --
                    # python ints hash measurably faster than np.int64
                    # in every downstream dict/set pass the executor
                    # runs, and compare equal everywhere.
                    keys=tuple(delta.keys[rows].tolist()),
                )
            )
        return cls(tracked=delta.tracked, batches=tuple(batches), epoch=epoch)

    @classmethod
    def merge(
        cls,
        plans: Sequence["MigrationPlan"],
        tracked: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> "MigrationPlan":
        """Concatenate shard-level plans into one fleet-level plan."""
        if tracked is None:
            tracked = sum(plan.tracked for plan in plans)
        return cls(
            tracked=tracked,
            batches=tuple(
                batch for plan in plans for batch in plan.batches
            ),
            epoch=epoch,
        )


@dataclass(frozen=True)
class MigrationStatus:
    """A point-in-time snapshot of an executor's progress."""

    planned: int
    copied: int
    committed: int
    skipped: int
    bytes_copied: int
    ticks: int

    @property
    def remaining(self) -> int:
        """Planned keys the cursor has not yet processed."""
        return self.planned - self.committed - self.skipped

    @property
    def done(self) -> bool:
        return self.remaining <= 0

    @property
    def phase(self) -> str:
        """``planned`` -> ``migrating`` -> ``done``."""
        if self.done:
            return "done"
        return "planned" if self.ticks == 0 else "migrating"

    def describe(self) -> str:
        return (
            "{}: {}/{} keys committed, {} skipped, {:,} bytes, "
            "{} tick(s)".format(
                self.phase,
                self.committed,
                self.planned,
                self.skipped,
                self.bytes_copied,
                self.ticks,
            )
        )


class MigrationExecutor:
    """Executes a :class:`MigrationPlan` over a data plane, throttled.

    Each :meth:`tick` selects a chunk bounded by ``max_keys_per_tick``
    (and ``max_bytes_per_tick`` when set, always admitting at least one
    key so progress is guaranteed), then runs it through three phases:

    1. **copy** -- read each key at its source store, write it to its
       destination store (the key is temporarily present at both);
    2. **verify** -- read every copied key back from the destination and
       compare; a mismatch raises :class:`~repro.errors.MigrationError`;
    3. **commit** -- delete the verified keys at their source (unless
       ``delete_source=False``: the graceful-drain pre-copy keeps the
       source serving until the membership epoch lands; the caller
       then reconciles the double copies over :meth:`processed_batches`).

    The hot path is array-at-a-time: the plan is flattened once into
    per-batch key offsets, a tick's cursor advances by one
    ``searchsorted`` over prefix-summed byte costs (instead of per-key
    ``item_bytes`` probes), and each contiguous per-batch segment of
    the admitted window moves through ``read_many`` -> ``put_many`` ->
    ``read_many`` -> ``evict_many``.  The executor prices nothing: the
    destination's ``put_many`` charges the copied pairs, and commit
    releases that same charge at the source.  Within one plan every
    key appears in exactly one batch, so per-segment phasing is
    state-identical to the scalar chunk-wide phasing.

    Keys absent from their source store (deleted since planning, or
    committed by a previous executor over the same plan) are skipped and
    counted.  The cursor lives on the executor, so execution resumes by
    simply calling :meth:`tick` again; to resume under a *new* executor
    (e.g. after persisting progress), feed :meth:`remaining_plan` to a
    fresh instance.  After completion :meth:`verify` re-routes every
    committed key and asserts its owner is the batch destination.
    """

    def __init__(
        self,
        plan: MigrationPlan,
        plane,
        max_keys_per_tick: int = 1_024,
        max_bytes_per_tick: Optional[int] = None,
        delete_source: bool = True,
    ):
        if max_keys_per_tick < 1:
            raise ValueError("max_keys_per_tick must be at least 1")
        if max_bytes_per_tick is not None and max_bytes_per_tick < 1:
            raise ValueError("max_bytes_per_tick must be at least 1")
        self._plan = plan
        self._plane = plane
        self._max_keys = max_keys_per_tick
        self._max_bytes = max_bytes_per_tick
        self._delete_source = delete_source
        self._planned = plan.total_keys
        # Flat cursor: batch ``i`` covers the half-open key-position
        # range ``[_bounds[i], _bounds[i + 1])``; ``_pos`` is the next
        # unprocessed position.
        counts = np.fromiter(
            (len(batch.keys) for batch in plan.batches),
            dtype=np.int64,
            count=len(plan.batches),
        )
        self._bounds = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        )
        self._total = int(self._bounds[-1])
        self._pos = 0
        self._copied = 0
        # Copied keys accumulate as per-tick chunks and merge into the
        # set lazily on first read -- set inserts are per-key work the
        # hot loop does not need to pay.
        self._copied_keys: set = set()
        self._copied_chunks: List[Sequence[Key]] = []
        self._committed = 0
        self._skipped = 0
        self._bytes_copied = 0
        self._ticks = 0

    @property
    def plan(self) -> MigrationPlan:
        """The plan being executed."""
        return self._plan

    @property
    def copied_keys(self) -> frozenset:
        """Keys this executor actually copied (skipped ones excluded).

        The reconciliation surface for retained-source runs needs the
        distinction: a processed-but-never-copied key was either
        deleted before the cursor reached it or was never at its
        planned source at all (in-flight backlog from an earlier
        migration) -- in both cases the reconcile must not touch it.
        """
        if self._copied_chunks:
            merged = self._copied_keys
            for chunk in self._copied_chunks:
                merged.update(chunk)
            self._copied_chunks.clear()
        return frozenset(self._copied_keys)

    @property
    def status(self) -> MigrationStatus:
        """Current progress snapshot."""
        return MigrationStatus(
            planned=self._planned,
            copied=self._copied,
            committed=self._committed,
            skipped=self._skipped,
            bytes_copied=self._bytes_copied,
            ticks=self._ticks,
        )

    def _segments(self, start: int, end: int):
        """Per-batch ``(batch, a, b)`` slices covering ``[start, end)``.

        ``a``/``b`` are key offsets inside the batch; empty batches are
        skipped.
        """
        bounds = self._bounds
        batches = self._plan.batches
        index = int(np.searchsorted(bounds, start, side="right")) - 1
        pos = start
        while pos < end:
            batch_end = int(bounds[index + 1])
            if batch_end <= pos:
                index += 1
                continue
            seg_end = min(end, batch_end)
            begin = int(bounds[index])
            yield batches[index], pos - begin, seg_end - begin
            pos = seg_end
            index += 1

    def _admitted_end(self) -> int:
        """The tick's cursor stop: key budget, then byte budget.

        Bit-exact with per-key throttling: the admitted count is the
        largest prefix whose cumulative cost fits ``max_bytes_per_tick``
        (absent keys cost 0), clamped to at least one key -- the same
        progress guarantee the scalar loop gave by always admitting the
        first key while still charging its cost.
        """
        pos = self._pos
        end = min(self._total, pos + self._max_keys)
        if self._max_bytes is None or end <= pos:
            return end
        costs = np.empty(end - pos, dtype=np.int64)
        filled = 0
        for batch, a, b in self._segments(pos, end):
            costs[filled : filled + (b - a)] = self._plane.store(
                batch.source
            ).item_bytes_many(batch.keys[a:b])
            filled += b - a
        admitted = int(
            np.searchsorted(
                np.cumsum(costs), self._max_bytes, side="right"
            )
        )
        return pos + max(1, admitted)

    def tick(self) -> MigrationStatus:
        """Move one throttled chunk through copy -> verify -> commit.

        Each per-batch segment of the admitted window costs four store
        calls: ``read_many`` at its source and ``put_many`` at its
        destination (copy), ``read_many`` back at the destination
        (verify), and ``evict_many`` at its source, releasing what the
        put charged (commit).  Commit starts only after every segment
        has read back, so a failed read-back leaves every source as it
        was.  Keys are unique within a plan, so the segment order is
        state-identical to the scalar chunk order (including each
        destination dict's insertion order).
        """
        start = self._pos
        end = self._admitted_end()
        # The cursor covers the admitted window whether or not every
        # key survives the phases -- identical to the scalar loop,
        # which consumed the chunk before running them.
        self._pos = end
        self._ticks += 1
        store = self._plane.store
        copies = []
        for batch, a, b in self._segments(start, end):
            keys = batch.keys[a:b]
            source = store(batch.source)
            values, misses = source.read_many(keys)
            if misses:
                # Deleted since planning, or already committed by an
                # earlier executor run over the same plan.
                self._skipped += misses
                hits = list(map(is_not, values, itertools.repeat(MISSING)))
                keys = list(itertools.compress(keys, hits))
                values = list(itertools.compress(values, hits))
                if not keys:
                    # Touching the destination would create its store.
                    continue
            destination = store(batch.destination)
            charged = destination.put_many(keys, values)
            self._bytes_copied += charged
            copies.append((source, destination, keys, values, charged))

        for __, destination, keys, values, __ in copies:
            readback = destination.read_many(keys)[0]
            # List equality short-circuits per element on identity
            # (exactly the scalar ``is``-then-``==`` check), so the
            # all-good case is one C-level pass.
            if readback != values:
                for key, value, seen in zip(keys, values, readback):
                    if seen is not value and seen != value:
                        raise MigrationError(
                            "copied key {!r} did not read back from {!r} "
                            "(wrote {!r}, read {!r})".format(
                                key, destination.server_id, value, seen
                            )
                        )

        # ``evict_many``'s precondition holds: every dropped key was
        # read from its source this tick (so it is present), plans
        # never repeat a key, and the copy writes only ever add keys
        # from *other* batches to a store.
        for source, __, keys, __, charged in copies:
            if self._delete_source:
                source.evict_many(keys, charged)
            self._copied += len(keys)
            self._committed += len(keys)
            self._copied_chunks.append(keys)
        return self.status

    def run(self, max_ticks: Optional[int] = None) -> MigrationStatus:
        """Tick until the plan is drained (or ``max_ticks`` is hit)."""
        ticks = 0
        while not self.status.done:
            if max_ticks is not None and ticks >= max_ticks:
                break
            self.tick()
            ticks += 1
        return self.status

    def remaining_plan(self) -> MigrationPlan:
        """The uncommitted tail, as a plan a fresh executor can take."""
        bounds = self._bounds
        pos = self._pos
        plan_batches = self._plan.batches
        first = int(np.searchsorted(bounds, pos, side="right")) - 1
        batches: List[MoveBatch] = []
        for index in range(max(first, 0), len(plan_batches)):
            batch = plan_batches[index]
            keys = (
                batch.keys[pos - int(bounds[index]) :]
                if index == first
                else batch.keys
            )
            if keys:
                batches.append(
                    MoveBatch(
                        source=batch.source,
                        destination=batch.destination,
                        keys=keys,
                    )
                )
        return MigrationPlan(
            tracked=self._plan.tracked,
            batches=tuple(batches),
            epoch=self._plan.epoch,
        )

    def processed_batches(self):
        """Yield ``(batch, keys)`` prefixes the cursor has processed.

        ``keys`` is the batch's processed (non-empty) prefix, skipped
        keys included: together the prefixes cover exactly the moves
        :meth:`tick` has taken through the copy/verify/commit phases so
        far, in plan order.  This is the reconciliation surface for
        retained-source runs: after the cutover epoch, the caller
        resolves each processed key *once across every executor that
        touched the plan* (the drain's catch-up pass re-runs an
        overlapping plan), per batch rather than per key -- see
        :meth:`~repro.control.loop.ControlLoop.drain`.
        """
        bounds = self._bounds
        pos = self._pos
        plan_batches = self._plan.batches
        last = int(np.searchsorted(bounds, pos, side="right")) - 1
        for index in range(min(last, len(plan_batches) - 1) + 1):
            batch = plan_batches[index]
            keys = (
                batch.keys
                if index < last
                else batch.keys[: pos - int(bounds[index])]
            )
            if keys:
                yield batch, keys

    def verify(self) -> int:
        """Ownership pass over everything the cursor has processed.

        Assigns every processed (non-skipped) key through the data
        plane's router -- one batched, avoid-blind pass over the whole
        cursor range -- and asserts each key's assigned owner is its
        batch's destination and the value is readable there.
        Meaningful immediately after execution -- later epochs may
        legitimately move keys again.  Returns the number of keys checked.
        """
        router = self._plane.router
        present: List[Key] = []
        expected: List[Key] = []
        for batch, keys in self.processed_batches():
            store = self._plane.store(batch.destination)
            __, found = store.get_many(keys)
            if found.all():
                held = list(keys)
            else:
                held = [keys[index] for index in found.nonzero()[0]]
            if not held:
                continue
            present.extend(held)
            expected.extend([batch.destination] * len(held))
        if not present:
            return 0
        owners = router.assign_batch(present)
        for key, want, owner in zip(present, expected, owners):
            if owner != want:
                raise MigrationError(
                    "moved key {!r} sits on {!r} but is assigned to "
                    "{!r}".format(key, want, owner)
                )
        return len(present)
