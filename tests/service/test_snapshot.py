"""Snapshot/restore: bit-identical replicas for every algorithm."""

import numpy as np
import pytest

from repro.errors import StateError
from repro.hashing import (
    DynamicHashTable,
    HDHashTable,
    MaglevHashTable,
    make_table,
    registered_algorithms,
)
from repro.hdc.basis import circular_basis
from repro.memory import FaultInjector, SingleBitFlips
from repro.service import (
    Router,
    dumps_state,
    load_table,
    loads_state,
    save_table,
)

LIGHT_CONFIG = {"hd": {"dim": 1_024, "codebook_size": 128}}
PROBE = np.arange(10_000, dtype=np.uint64)


def build(name, seed=3):
    return make_table(name, seed=seed, **LIGHT_CONFIG.get(name, {}))


def churn(table):
    """A membership history with joins and interleaved leaves."""
    for index in range(10):
        table.join(index)
    table.leave(3)
    table.leave(7)
    table.join("late-1")
    table.join("late-2")
    return table


@pytest.mark.parametrize("name", sorted(registered_algorithms()))
class TestStateRoundTrip:
    def test_identical_routing_on_probe(self, name):
        table = churn(build(name))
        reference = table.lookup_batch(PROBE)
        restored = DynamicHashTable.from_state(table.state_dict())
        assert restored.server_ids == table.server_ids
        assert np.array_equal(restored.lookup_batch(PROBE), reference)

    def test_json_codec_round_trip(self, name):
        table = churn(build(name))
        reference = table.lookup_batch(PROBE[:2_000])
        restored = DynamicHashTable.from_state(
            loads_state(dumps_state(table.state_dict()))
        )
        assert np.array_equal(restored.lookup_batch(PROBE[:2_000]), reference)

    def test_restored_table_accepts_further_churn(self, name):
        table = churn(build(name))
        restored = DynamicHashTable.from_state(table.state_dict())
        table.join("after")
        restored.join("after")
        table.leave(5)
        restored.leave(5)
        assert np.array_equal(
            table.lookup_batch(PROBE[:2_000]),
            restored.lookup_batch(PROBE[:2_000]),
        )

    def test_snapshot_is_insulated_from_later_mutation(self, name):
        table = churn(build(name))
        state = table.state_dict()
        reference = table.lookup_batch(PROBE[:2_000])
        table.leave(0)  # mutate after snapshotting
        restored = DynamicHashTable.from_state(state)
        assert np.array_equal(restored.lookup_batch(PROBE[:2_000]), reference)


class TestCorruptedSnapshots:
    """The paper's robustness story needs bit-exact replicas: a snapshot
    must capture the live (possibly corrupted) memory, not a pristine
    rebuild."""

    @pytest.mark.parametrize("name", sorted(registered_algorithms()))
    def test_restore_preserves_injected_faults(self, name, rng):
        table = churn(build(name))
        injector = FaultInjector(table.memory_regions())
        injector.inject(SingleBitFlips(20), rng)
        reference = table.lookup_batch(PROBE)
        restored = DynamicHashTable.from_state(table.state_dict())
        assert np.array_equal(restored.lookup_batch(PROBE), reference)

    def test_hd_routes_identically_under_fault_injection(self, rng):
        """Acceptance: HD replica is bit-identical on a 10k-key probe,
        through the serialized codec, with faults in the item memory."""
        table = churn(build("hd"))
        injector = FaultInjector(table.memory_regions())
        injector.inject(SingleBitFlips(50), rng)
        reference = table.lookup_batch(PROBE)
        blob = dumps_state(table.state_dict())
        restored = DynamicHashTable.from_state(loads_state(blob))
        assert np.array_equal(restored.lookup_batch(PROBE), reference)
        rows = table.item_memory.memory_view()
        restored_rows = restored.item_memory.memory_view()
        assert np.array_equal(rows, restored_rows)  # bit-exact memory

    def test_hd_exposed_codebook_corruption_survives(self, rng):
        table = make_table(
            "hd", seed=3, dim=1_024, codebook_size=128, expose_codebook=True
        )
        churn(table)
        injector = FaultInjector(table.memory_regions())
        injector.inject(SingleBitFlips(60), rng)
        reference = table.lookup_batch(PROBE)
        restored = DynamicHashTable.from_state(
            loads_state(dumps_state(table.state_dict()))
        )
        assert np.array_equal(restored.lookup_batch(PROBE), reference)


class TestHDCodebookModes:
    def test_explicit_codebook_is_embedded(self):
        codebook = circular_basis(
            64, 512, np.random.default_rng(99)
        )
        table = HDHashTable(seed=1, codebook=codebook)
        churn(table)
        state = table.state_dict()
        assert state["payload"]["codebook"]["mode"] == "explicit"
        restored = HDHashTable.from_state(
            loads_state(dumps_state(state))
        )
        assert np.array_equal(
            restored.lookup_batch(PROBE), table.lookup_batch(PROBE)
        )
        assert restored.codebook_size == 64

    def test_derived_codebook_stays_compact(self):
        table = churn(build("hd"))
        state = table.state_dict()
        assert state["payload"]["codebook"] == {"mode": "derived"}
        assert state["payload"]["codebook_packed"] is None
        # the serialized form stays small: no embedded codebook matrix
        assert len(dumps_state(state)) < 20_000


class TestHDOlderSnapshots:
    def test_batch_size_in_config_restores_bit_identically(self):
        # HD's config once carried a ``batch_size`` that no kernel read;
        # snapshots written then still restore, and route the same.
        table = churn(build("hd"))
        state = table.state_dict()
        state["config"]["batch_size"] = 256
        restored = HDHashTable.from_state(loads_state(dumps_state(state)))
        assert restored.server_ids == table.server_ids
        assert np.array_equal(
            restored.item_memory.memory_view(), table.item_memory.memory_view()
        )
        assert np.array_equal(restored.lookup_batch(PROBE), table.lookup_batch(PROBE))
        assert "batch_size" not in restored.state_dict()["config"]


class TestFilePersistence:
    def test_save_and_load_table(self, tmp_path):
        table = churn(build("maglev"))
        path = str(tmp_path / "maglev.json")
        save_table(table, path)
        restored = load_table(path)
        assert isinstance(restored, MaglevHashTable)
        assert np.array_equal(
            restored.lookup_batch(PROBE[:2_000]),
            table.lookup_batch(PROBE[:2_000]),
        )

    def test_bytes_server_ids_round_trip(self, tmp_path):
        table = build("consistent")
        table.join(b"raw-id")
        table.join("text-id")
        path = str(tmp_path / "table.json")
        save_table(table, path)
        restored = load_table(path)
        assert restored.server_ids == (b"raw-id", "text-id")


class TestRouterSnapshotHistory:
    """Regression: ``Router.snapshot()`` used to drop the EpochRecord
    history, so remap accounting silently reset to zero after a
    snapshot round-trip."""

    def _churned_router(self):
        router = Router(
            build("consistent"), probe_keys=PROBE[:2_000].tolist()
        )
        router.sync(range(8))
        router.sync(range(6))
        router.sync(list(range(6)) + ["late"])
        return router

    def test_history_survives_round_trip(self):
        router = self._churned_router()
        restored = Router.restore(router.snapshot())
        assert restored.epoch == router.epoch == 3
        assert restored.history == router.history
        # the churn bill is preserved, not reset
        assert sum(r.remapped for r in restored.history) == pytest.approx(
            sum(r.remapped for r in router.history)
        )
        assert restored.history[1].probes_moved > 0

    def test_history_survives_json_codec(self):
        router = self._churned_router()
        restored = Router.restore(
            loads_state(dumps_state(router.snapshot()))
        )
        assert restored.history == router.history

    def test_restored_router_appends_to_history(self):
        router = self._churned_router()
        restored = Router.restore(router.snapshot())
        restored.sync(range(6))
        assert restored.epoch == 4
        assert len(restored.history) == 4
        assert restored.history[:3] == router.history

    def test_empty_history_round_trips(self):
        router = Router(build("modular"))
        restored = Router.restore(router.snapshot())
        assert restored.history == ()
        assert restored.epoch == 0


class TestStateErrors:
    def test_wrong_format_rejected(self):
        state = build("modular").state_dict()
        state["format"] = 99
        with pytest.raises(StateError):
            DynamicHashTable.from_state(state)

    def test_class_mismatch_rejected(self):
        state = churn(build("modular")).state_dict()
        with pytest.raises(StateError):
            HDHashTable.from_state(state)

    def test_subclass_dispatch_accepts_match(self):
        state = churn(build("hd")).state_dict()
        restored = HDHashTable.from_state(state)
        assert isinstance(restored, HDHashTable)
