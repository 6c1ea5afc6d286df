"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import REGISTRY, main
from repro.hashing import DynamicHashTable, registered_algorithms, table_class


class TestList:
    def test_lists_every_artefact(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for name in REGISTRY:
            assert name in text

    def test_registry_covers_paper_figures(self):
        assert {"fig2", "fig4", "fig5", "fig6", "mcu"} <= set(REGISTRY)


class TestRoute:
    def test_route_with_replicas_prints_sets(self):
        out = io.StringIO()
        code = main(
            ["route", "consistent", "--servers", "6", "--requests", "3",
             "--replicas", "3"],
            out=out,
        )
        assert code == 0
        lines = [
            line for line in out.getvalue().splitlines() if "->" in line
        ]
        assert len(lines) == 3
        for line in lines:
            servers = line.split("->")[1].split(",")
            assert len(servers) == 3
            assert len(set(s.strip() for s in servers)) == 3

    def test_route_replicas_above_pool_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["route", "modular", "--servers", "3", "--replicas", "4"],
                out=io.StringIO(),
            )


class TestCluster:
    def test_cluster_routes_and_names_shards(self):
        out = io.StringIO()
        code = main(
            ["cluster", "modular", "--shards", "3", "--servers", "6",
             "--requests", "4"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "x3 shards" in text
        assert text.count("shard ") >= 4

    def test_cluster_failover_prints_reroute(self):
        out = io.StringIO()
        code = main(
            ["cluster", "consistent", "--shards", "2", "--servers", "4",
             "--requests", "6", "--avoid", "server-01"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "failover:" in text
        for line in text.splitlines():
            if "failover:" in line:
                assert "failover: server-01" not in line

    def test_cluster_unknown_avoid_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["cluster", "modular", "--servers", "4", "--avoid", "ghost"],
                out=io.StringIO(),
            )

    def test_cluster_bad_option_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["cluster", "hd", "-o", "warp=1"],
                out=io.StringIO(),
            )


class TestMigrate:
    def test_plan_only_moves_no_data(self):
        out = io.StringIO()
        code = main(
            ["migrate", "modular", "--servers", "6", "--target", "8",
             "--keys", "500", "--plan-only"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "plan:" in text
        assert "moved fraction" in text
        assert "plan-only: no data moved" in text
        assert "OK:" not in text

    def test_execute_migrates_and_verifies(self):
        out = io.StringIO()
        code = main(
            ["migrate", "consistent", "--servers", "6", "--target", "9",
             "--keys", "400", "--max-keys-per-tick", "100"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "OK:" in text
        assert "ownership-verified" in text
        assert "readable at their routed owner" in text

    def test_shrink_is_supported(self):
        out = io.StringIO()
        code = main(
            ["migrate", "consistent", "--servers", "8", "--target", "5",
             "--keys", "300"],
            out=out,
        )
        assert code == 0
        assert "OK:" in out.getvalue()

    def test_noop_target_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["migrate", "modular", "--servers", "4", "--target", "4"],
                out=io.StringIO(),
            )

    def test_bad_throttle_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["migrate", "modular", "--max-keys-per-tick", "0"],
                out=io.StringIO(),
            )
        with pytest.raises(SystemExit):
            main(
                ["migrate", "modular", "--status-every", "0"],
                out=io.StringIO(),
            )


class TestRun:
    def test_run_costmodel_fast(self):
        out = io.StringIO()
        assert main(["run", "costmodel", "--profile", "fast"], out=out) == 0
        assert "hdc-accelerator" in out.getvalue()

    def test_run_remap_fast(self):
        out = io.StringIO()
        assert main(["run", "remap", "--profile", "fast"], out=out) == 0
        assert "modular" in out.getvalue()

    def test_csv_export(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "costs.csv"
        code = main(
            ["run", "costmodel", "--profile", "fast", "--csv", str(path)],
            out=out,
        )
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert header == "machine,algorithm,servers,cycles"

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"], out=io.StringIO())

    def test_invalid_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--profile", "warp"], out=io.StringIO())

    def test_all_with_csv_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["run", "all", "--profile", "fast", "--csv", "x.csv"],
                out=io.StringIO(),
            )


class TestAlgorithmsListing:
    def test_capability_flags_printed(self):
        out = io.StringIO()
        assert main(["algorithms"], out=out) == 0
        text = out.getvalue()
        lines = {
            line.split()[0]: line for line in text.splitlines() if line
        }
        # Weight-capable tables are flagged; weight-blind ones are not.
        assert "weighted" in lines["weighted-rendezvous"]
        assert "weighted," in lines["weighted"]
        assert "weighted" not in lines["modular"].split("]")[1].split("]")[0]
        # One line per entry, flags drawn from three.  Batch and replica
        # kernels are not flags: every registered class has its own.
        assert set(lines) == set(registered_algorithms())
        for name, line in lines.items():
            flags = line.split("[")[2].split("]")[0].split()[0]
            assert set(flags.split(",")) <= {
                "-",
                "weighted",
                "churn-incremental",
                "delta-close",
            }, name
            cls = table_class(name)
            assert cls._route_batch is not DynamicHashTable._route_batch
            assert (
                cls._route_replicas_batch
                is not DynamicHashTable._route_replicas_batch
            )
        # Membership/epoch kernels surface as derived flags too: bulk
        # join/leave kernels and the delta-scoped epoch-close kernels.
        assert "churn-incremental" in lines["rendezvous"]
        assert "churn-incremental" in lines["hierarchical"]
        assert "churn-incremental" not in lines["weighted"]
        assert "delta-close" in lines["weighted"]
        assert "delta-close" in lines["hd"]
        assert "churn-incremental" not in lines["maglev"]


class TestControl:
    def test_status_prints_weighted_fleet(self):
        out = io.StringIO()
        code = main(
            ["control", "status", "modular", "--keys", "600",
             "--servers", "4", "--weights", "1,2"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "total weight 6.0" in text
        assert "fleet imbalance" in text
        assert "healthy" in text

    def test_tick_plan_only_moves_nothing(self):
        out = io.StringIO()
        code = main(
            ["control", "tick", "consistent", "--plan-only",
             "--keys", "500"],
            out=out,
        )
        assert code == 0

    def test_tick_live(self):
        out = io.StringIO()
        code = main(
            ["control", "tick", "modular", "--keys", "400"], out=out
        )
        assert code == 0

    def test_drain_verifies_invariant(self):
        out = io.StringIO()
        code = main(
            ["control", "drain", "rendezvous", "--keys", "800",
             "--servers", "4"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "drained" in text
        assert "epoch remap count == plan size" in text

    def test_drain_named_server(self):
        out = io.StringIO()
        code = main(
            ["control", "drain", "modular", "--keys", "400",
             "--server", "server-01"],
            out=out,
        )
        assert code == 0
        assert "'server-01'" in out.getvalue()

    def test_unknown_drain_server_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["control", "drain", "modular", "--server", "nope"],
                out=io.StringIO(),
            )

    def test_bad_weights_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["control", "status", "modular", "--weights", "1,zero"],
                out=io.StringIO(),
            )
        with pytest.raises(SystemExit):
            main(
                ["control", "status", "modular", "--weights", "-1,2"],
                out=io.StringIO(),
            )


class TestMigrateImbalance:
    def test_migrate_reports_fleet_imbalance(self):
        out = io.StringIO()
        code = main(
            ["migrate", "modular", "--servers", "4", "--target", "6",
             "--keys", "500"],
            out=out,
        )
        assert code == 0
        assert "fleet imbalance" in out.getvalue()


class TestServeCommand:
    def test_serve_accepts_batching_flag_spellings(self):
        # --max-delay / --cache-capacity are the documented aliases of
        # --max-delay-ms / --cache; both spellings must drive the run.
        out = io.StringIO()
        code = main(
            ["serve", "modular", "--requests", "400", "--no-churn",
             "--max-batch", "64", "--max-delay", "0.5",
             "--cache-capacity", "128"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "OK: serving SLAs met" in text
        assert "batch" in text

    def test_serve_rejects_zero_max_batch(self):
        with pytest.raises(SystemExit, match="--max-batch"):
            main(
                ["serve", "modular", "--max-batch", "0"],
                out=io.StringIO(),
            )

    def test_serve_rejects_negative_delay(self):
        with pytest.raises(SystemExit, match="--max-delay"):
            main(
                ["serve", "modular", "--max-delay", "-1"],
                out=io.StringIO(),
            )

    def test_serve_rejects_zero_cache_capacity(self):
        with pytest.raises(SystemExit, match="--cache-capacity"):
            main(
                ["serve", "modular", "--cache-capacity", "0"],
                out=io.StringIO(),
            )
