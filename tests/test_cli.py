"""CLI integration: every subcommand runs and prints what it promises."""

import json

import pytest

from repro.cli import main


class TestRegionCommand:
    def test_describe(self, capsys):
        assert main(["region", "--dcs", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 DCs" in out
        assert "Tbps" in out

    def test_export_and_reload(self, tmp_path, capsys):
        out_file = tmp_path / "region.json"
        assert main(["region", "--dcs", "4", "--out", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["format_version"] == 1
        # Reload through --region-file.
        capsys.readouterr()
        assert main(["region", "--region-file", str(out_file)]) == 0
        assert "4 DCs" in capsys.readouterr().out


class TestPlanCommand:
    def test_plan_and_export(self, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        code = main(
            ["plan", "--dcs", "4", "--tolerance", "1", "--out", str(out_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "base fiber-pairs" in out
        assert "constraint violations: 0" in out
        assert json.loads(out_file.read_text())["total_fiber_pair_spans"] > 0

    def test_plan_parallel_smoke(self, capsys):
        """ISSUE smoke target: the --jobs pool path runs on every CI pass."""
        assert main(["plan", "--dcs", "5", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "constraint violations: 0" in out
        assert "backend process" in out

    def test_jobs_alone_picks_the_backend(self, capsys):
        """There is no ``--backend`` flag: ``--jobs`` picks serial or pool."""
        for command in ("plan", "sweep", "analyze", "serve"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--backend", "process"])
            assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_plan_serial_reports_timings(self, capsys):
        assert main(["plan", "--dcs", "4", "--tolerance", "1"]) == 0
        out = capsys.readouterr().out
        assert "planning time" in out
        assert "backend serial" in out


class TestCostCommand:
    def test_cost_table(self, capsys):
        assert main(["cost", "--dcs", "4", "--tolerance", "1"]) == 0
        out = capsys.readouterr().out
        assert "iris" in out and "eps" in out and "hybrid" in out
        assert "cost ratio" in out


class TestPortModelCommand:
    def test_table(self, capsys):
        assert main(["portmodel", "--dcs", "8"]) == 0
        out = capsys.readouterr().out
        assert "groups" in out
        assert "optical" in out


class TestSweepCommand:
    def test_limited_sweep(self, capsys):
        assert main(["sweep", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "EPS/Iris" in out
        assert "median" in out

    def test_resume_without_store_is_a_usage_error(self, capsys):
        assert main(["sweep", "--limit", "1", "--resume", "--no-store"]) == 2
        assert "--resume needs an artifact store" in capsys.readouterr().err


class TestStoreCommands:
    def _args(self, tmp_path):
        return ["--dcs", "4", "--tolerance", "1", "--store", str(tmp_path)]

    def test_plan_cold_warm_stdout_identical(self, tmp_path, capsys):
        assert main(["plan", *self._args(tmp_path)]) == 0
        cold = capsys.readouterr()
        assert main(["plan", *self._args(tmp_path)]) == 0
        warm = capsys.readouterr()

        def strip(out):  # the wall-time line legitimately differs
            return [line for line in out.splitlines()
                    if not line.startswith("planning time:")]

        assert strip(cold.out) == strip(warm.out)
        assert "1 miss(es)" in cold.err and "1 hit(s)" in warm.err

    def test_plan_store_hit_reports_counts_without_a_split(
        self, tmp_path, capsys
    ):
        # A plan loaded from the store was not planned by this run: it
        # reports its scenario counts, but no planning time or hose split.
        args = ["--dcs", "4", "--tolerance", "1", "--store", str(tmp_path)]
        assert main(["plan", *args]) == 0
        cold = capsys.readouterr().out.splitlines()
        assert main(["plan", *args]) == 0
        warm = capsys.readouterr().out.splitlines()
        assert [line for line in cold if line.startswith("planning time:")]
        assert not [line for line in warm if line.startswith("planning time:")]
        scenarios = [line for line in cold if line.startswith("scenarios:")]
        assert scenarios and scenarios[0] in warm

    def test_sweep_cold_warm_stdout_identical(self, tmp_path, capsys):
        args = ["sweep", "--limit", "2", "--store", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert main([*args, "--resume"]) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out
        assert "0 hit(s)" in cold.err and "0 miss(es)" in warm.err

    def test_no_store_opts_out(self, tmp_path, capsys):
        assert main(["plan", *self._args(tmp_path), "--no-store"]) == 0
        captured = capsys.readouterr()
        assert "store:" not in captured.err
        assert not (tmp_path / "objects").exists()

    def test_stats_human_and_json(self, tmp_path, capsys):
        assert main(["plan", *self._args(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(tmp_path)]) == 0
        assert "kind plan: 1" in capsys.readouterr().out
        assert main(["store", "stats", "--store", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["blobs"] == 1 and stats["kinds"] == {"plan": 1}

    def test_verify_and_gc(self, tmp_path, capsys):
        assert main(["plan", *self._args(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out
        assert main(["store", "gc", "--store", str(tmp_path)]) == 0
        assert "removed 0 stale tmp file(s)" in capsys.readouterr().out
        # Corrupt the lone blob: verify flags it, --repair clears it.
        blob = next((tmp_path / "objects").glob("*/*.json"))
        blob.write_text("garbage")
        assert main(["store", "verify", "--store", str(tmp_path)]) == 1
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(tmp_path), "--repair"]) == 1
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(tmp_path)]) == 0

    def test_store_commands_need_a_store(self, capsys, monkeypatch):
        monkeypatch.delenv("IRIS_STORE", raising=False)
        assert main(["store", "stats"]) == 2
        assert "need --store DIR or $IRIS_STORE" in capsys.readouterr().err

    def test_iris_store_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IRIS_STORE", str(tmp_path))
        assert main(["plan", "--dcs", "4", "--tolerance", "1"]) == 0
        assert "1 put(s)" in capsys.readouterr().err
        assert main(["store", "stats"]) == 0
        assert "blobs: 1" in capsys.readouterr().out


class TestSimulateCommand:
    def test_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--dcs",
                "4",
                "--duration",
                "4",
                "--interval",
                "2",
                "--utilization",
                "0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown" in out


class TestTestbedCommand:
    def test_experiment(self, capsys):
        assert main(["testbed", "--duration", "120", "--period", "60"]) == 0
        out = capsys.readouterr().out
        assert "max pre-FEC BER" in out
        assert "error-free post-FEC: True" in out


class TestAnalyzeCommand:
    def test_analysis_summary(self, capsys):
        assert main(["analyze", "--regions", "3"]) == 0
        out = capsys.readouterr().out
        assert "latency inflation" in out
        assert "siting-area gain" in out


class TestFailoverCommand:
    def test_drill(self, capsys):
        code = main(
            ["failover", "--dcs", "4", "--tolerance", "1", "--map-index", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cutting duct" in out
        assert "audit: clean" in out
        assert "restored shortest paths" in out


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import pytest as _pytest

        import repro

        with _pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"iris {repro.__version__}"


class TestServiceCommands:
    def test_jobs_against_dead_daemon_is_an_error(self, capsys):
        # Port 1 is never listening; the client error must surface as a
        # clean CLI error, not a traceback.
        assert main(["jobs", "--port", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_serve_round_trip(self, tmp_path, capsys):
        from repro.service import PlannerService, ServiceConfig

        with PlannerService(ServiceConfig(workers=1)).start() as service:
            _host, port = service.address
            out_file = tmp_path / "plan.json"
            code = main(
                [
                    "submit",
                    "--port",
                    str(port),
                    "--dcs",
                    "4",
                    "--fibers",
                    "6",
                    "--tolerance",
                    "1",
                    "--timeout",
                    "120",
                    "--out",
                    str(out_file),
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "done (cold)" in out
            assert json.loads(out_file.read_text())["format_version"] >= 1
            assert main(["jobs", "--port", str(port)]) == 0
            assert "cold" in capsys.readouterr().out
