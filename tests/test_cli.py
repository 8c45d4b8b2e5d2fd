"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "F1a", "--quick", "--seed", "3"])
        assert args.experiment == "F1a"
        assert args.quick is True
        assert args.seed == 3

    def test_run_defaults_serial_no_timing(self):
        args = build_parser().parse_args(["run", "F1a"])
        assert args.workers == 1
        assert args.timing is False

    def test_run_workers_and_timing_flags(self):
        args = build_parser().parse_args(
            ["run", "F1b", "--workers", "4", "--timing"]
        )
        assert args.workers == 4
        assert args.timing is True

    def test_stability_workers_flag(self):
        args = build_parser().parse_args(["stability", "3", "--workers", "2"])
        assert args.workers == 2

    def test_seeding_workers_flag(self):
        args = build_parser().parse_args(["seeding", "--workers", "3"])
        assert args.workers == 3

    def test_workers_rejects_non_integer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "F1a", "--workers", "many"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.intensities == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert args.replications == 2
        assert args.max_attempts == 2
        assert args.workers == 1

    def test_chaos_explicit_intensities(self):
        args = build_parser().parse_args(
            ["chaos", "0", "1", "2", "--quick", "--max-attempts", "3"]
        )
        assert args.intensities == [0.0, 1.0, 2.0]
        assert args.quick is True
        assert args.max_attempts == 3

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8750
        assert args.solver_threads == 2
        assert args.max_entries == 128
        assert args.max_bytes_mb == 256

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--max-bytes-mb", "0",
             "--solver-threads", "4"]
        )
        assert args.port == 9000
        assert args.max_bytes_mb == 0
        assert args.solver_threads == 4

    def test_run_method_is_free_form(self):
        args = build_parser().parse_args(
            ["run", "F1a", "--method", "mean-field"]
        )
        assert args.method == "mean-field"

    def test_run_backend_is_free_form(self):
        args = build_parser().parse_args(["run", "F3a", "--backend", "soa"])
        assert args.backend == "soa"
        assert build_parser().parse_args(["run", "F3a"]).backend is None

    def test_swarm_commands_default_object_backend(self):
        parser = build_parser()
        assert parser.parse_args(["stability", "3"]).backend == "object"
        assert parser.parse_args(["seeding"]).backend == "object"
        assert parser.parse_args(["chaos"]).backend == "object"
        assert parser.parse_args(
            ["scenario", "flash-crowd", "--backend", "soa"]
        ).backend == "soa"


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "F1a" in out
        assert "F3bc" in out
        assert "Figure 1(a)" in out

    def test_run_quick_f1a(self, capsys):
        assert main(["run", "F1a", "--quick", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(a)" in out
        assert "PSS=" in out

    def test_run_with_timing_prints_telemetry(self, capsys):
        assert main(["run", "F2", "--quick", "--timing"]) == 0
        out = capsys.readouterr().out
        assert "timing:" in out
        assert "kernel cache:" in out

    def test_run_without_timing_omits_telemetry(self, capsys):
        assert main(["run", "F2", "--quick"]) == 0
        assert "timing:" not in capsys.readouterr().out

    def test_run_with_workers_matches_serial(self, capsys):
        assert main(["run", "F1a", "--quick", "--seed", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([
            "run", "F1a", "--quick", "--seed", "1", "--workers", "2",
        ]) == 0
        assert capsys.readouterr().out == serial

    def test_run_rejects_bad_workers(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            main(["run", "F2", "--quick", "--workers", "-1"])

    def test_run_unknown_experiment(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            main(["run", "F99"])

    def test_run_method_alias_accepted(self, capsys):
        assert main([
            "run", "F1a", "--quick", "--seed", "1",
            "--method", "sparse",
        ]) == 0
        assert "Figure 1(a)" in capsys.readouterr().out

    def test_run_method_meanfield_end_to_end(self, capsys):
        assert main([
            "run", "F1a", "--quick", "--seed", "1",
            "--method", "meanfield",
        ]) == 0
        assert "Figure 1(a)" in capsys.readouterr().out

    def test_run_unknown_method_lists_choices(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError) as excinfo:
            main(["run", "F1a", "--quick", "--method", "bogus"])
        message = str(excinfo.value)
        assert "unknown method 'bogus'" in message
        assert "'exact'" in message and "'batch'" in message
        assert "'meanfield'" in message and "'mean-field'" in message

    @pytest.mark.parametrize("name", ["serial", "monte-carlo", "montecarlo"])
    def test_run_retired_monte_carlo_names_rejected(self, name):
        from repro.errors import ParameterError

        for experiment in ("F1a", "F1b"):
            with pytest.raises(ParameterError) as excinfo:
                main(["run", experiment, "--quick", "--method", name])
            message = str(excinfo.value)
            assert f"unknown method {name!r}" in message
            assert "'exact'" in message and "'batch'" in message

    def test_run_method_on_methodless_runner_warns(self, capsys):
        assert main(["run", "F2", "--quick", "--method", "exact"]) == 0
        assert "no method switch" in capsys.readouterr().err

    def test_run_soa_backend_end_to_end(self, capsys):
        for experiment, figure in (
            ("F3a", "Figure 3/4(a)"),
            ("F3bc", "Figure 3/4(b,c)"),
        ):
            assert main([
                "run", experiment, "--quick", "--seed", "1",
                "--backend", "soa", "--timing",
            ]) == 0
            captured = capsys.readouterr()
            assert figure in captured.out
            assert "backend: soa" in captured.out
            assert "no backend switch" not in captured.err

    def test_run_unknown_backend_lists_choices(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError) as excinfo:
            main(["run", "F3a", "--quick", "--backend", "bogus"])
        message = str(excinfo.value)
        assert "unknown swarm backend 'bogus'" in message
        assert "'object'" in message and "'soa'" in message

    def test_run_backend_on_backendless_runner_warns(self, capsys):
        assert main(["run", "F2", "--quick", "--backend", "soa"]) == 0
        assert "no backend switch" in capsys.readouterr().err

    def test_scenario_backend_runs_soa(self, capsys):
        assert main([
            "scenario", "flash-crowd", "--horizon", "10",
            "--backend", "soa",
        ]) == 0
        assert "completed downloads" in capsys.readouterr().out

    def test_scenario_unknown_backend_rejected(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            main(["scenario", "flash-crowd", "--backend", "bogus"])

    def test_serve_rejects_bad_bounds(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            main(["serve", "--max-entries", "0"])
        with pytest.raises(ParameterError):
            main(["serve", "--max-bytes-mb", "-1"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro-bt" in capsys.readouterr().out


class TestTraceAndCalibrate:
    def test_trace_then_calibrate(self, tmp_path, capsys):
        path = tmp_path / "traces.jsonl"
        assert main(["trace", "last", str(path), "--seed", "0"]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main([
            "calibrate", str(path), "--max-conns", "4", "--ns-size", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "gamma" in out and "p_r" in out

    def test_trace_count(self, tmp_path, capsys):
        from repro.traces.io import read_trace_jsonl

        path = tmp_path / "many.jsonl"
        assert main(["trace", "smooth", str(path), "--count", "2"]) == 0
        assert len(read_trace_jsonl(path)) == 2

    def test_trace_rejects_unknown_archetype(self):
        with pytest.raises(SystemExit):
            main(["trace", "weird", "out.jsonl"])


class TestStabilityCommand:
    def test_sweep_output(self, capsys):
        assert main([
            "stability", "3", "10",
            "--arrival-rate", "8", "--initial", "80", "--horizon", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "final peers" in out
        assert "drift model" in out


class TestScenarioCommand:
    def test_list_scenarios(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "steady-state" in out
        assert "flash-crowd" in out

    def test_run_scenario(self, capsys):
        assert main(["scenario", "steady-state", "--horizon", "30"]) == 0
        out = capsys.readouterr().out
        assert "completed downloads" in out
        assert "measured p_r" in out

    def test_unknown_scenario(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            main(["scenario", "warp-speed"])


class TestChaosCommand:
    def test_quick_sweep_output(self, capsys):
        assert main([
            "chaos", "0", "1", "--quick", "--replications", "1", "--timing",
        ]) == 0
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "model eta" in out
        assert "timing:" in out

    def test_without_timing_omits_telemetry(self, capsys):
        assert main(["chaos", "0", "--quick", "--replications", "1"]) == 0
        assert "timing:" not in capsys.readouterr().out
