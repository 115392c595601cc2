"""Tests for the command-line interface."""

import pytest

from repro.circuits.base import OpampTemplate
from repro.cli import build_parser, main
from repro.errors import ServeError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "nonsense"])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize", "miller"])
        assert args.iterations == 5
        assert args.samples == 10000
        assert not args.no_constraints

    def test_ablation_flags(self):
        args = build_parser().parse_args(
            ["optimize", "folded-cascode", "--no-constraints",
             "--nominal-linearization"])
        assert args.no_constraints
        assert args.nominal_linearization


class TestJobsValidation:
    @pytest.mark.parametrize("command", ["yield", "optimize"])
    def test_zero_jobs_fail_before_any_simulation(self, monkeypatch,
                                                  command):
        def simulated(*args, **kwargs):
            raise AssertionError("simulated before --jobs was checked")

        monkeypatch.setattr(OpampTemplate, "evaluate", simulated)
        monkeypatch.setattr(OpampTemplate, "evaluate_batch", simulated)
        with pytest.raises(ServeError, match="jobs must be >= 1"):
            main([command, "miller", "--jobs", "0"])


class TestEvaluateCommand:
    def test_prints_performances(self, capsys):
        assert main(["evaluate", "ota"]) == 0
        out = capsys.readouterr().out
        assert "nominal performances" in out
        assert "a0" in out and "noise" in out
        assert "PASS" in out
        assert "sizing rules" in out


class TestSimulateCommand:
    def test_netlist_file(self, tmp_path, capsys):
        netlist = tmp_path / "divider.sp"
        netlist.write_text(
            "divider\nV1 in 0 DC 2.0\nR1 in out 1k\nR2 out 0 1k\n.end\n")
        assert main(["simulate", str(netlist)]) == 0
        out = capsys.readouterr().out
        assert "V(out) = 1.000000" in out

    def test_ac_readout(self, tmp_path, capsys):
        netlist = tmp_path / "rc.sp"
        netlist.write_text(
            "rc\nV1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1u\n.end\n")
        assert main(["simulate", str(netlist), "--node", "out",
                     "--ac", "159.155"]) == 0
        out = capsys.readouterr().out
        assert "-3.0 dB" in out


@pytest.mark.slow
class TestAnalysisCommands:
    def test_corners_exit_code_signals_failures(self, capsys):
        # The OTA initial sizing fails a0 at a hot corner -> exit code 1.
        code = main(["corners", "ota"])
        out = capsys.readouterr().out
        assert "worst value" in out
        assert code in (0, 1)

    def test_analyze_local_only(self, capsys):
        assert main(["analyze", "ota", "--local-only"]) == 0
        out = capsys.readouterr().out
        assert "worst-case distances" in out

    def test_analyze_without_local_variations(self, capsys):
        # Miller models global variations only: no mismatch candidates.
        assert main(["analyze", "miller"]) == 0
        out = capsys.readouterr().out
        assert "worst-case distances" in out
        assert "mismatch-sensitive" not in out

    def test_optimize_quick(self, capsys):
        code = main(["optimize", "ota", "--iterations", "1",
                     "--samples", "2000", "--verify-samples", "30",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Y_tilde" in out
        assert "stop reason:" in out

    def test_optimize_with_faults_and_checkpoint(self, tmp_path, capsys):
        checkpoint = tmp_path / "run.ckpt.json"
        # The fault seed must inject faults without ever exhausting the
        # retry budget on one point: model building runs strict, so a
        # point whose original and jittered probes all fault aborts the
        # run (by design).  Injection is point-deterministic, so the
        # safe seeds shift whenever evaluation values move the search
        # trajectory at all.
        args = ["optimize", "ota", "--iterations", "1",
                "--samples", "2000", "--verify-samples", "30",
                "--seed", "3", "--inject-faults", "0.05",
                "--fault-seed", "2", "--checkpoint", str(checkpoint)]
        code = main(args)
        assert code == 0
        out = capsys.readouterr().out
        assert "stop reason:" in out
        assert checkpoint.exists()
        # Resuming from the finished run's checkpoint replays the same
        # trace without re-optimizing.
        code = main(args + ["--resume"])
        assert code == 0
        resumed = capsys.readouterr().out
        assert "stop reason:" in resumed
        assert "final design" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_optimize_with_faults_is_jobs_invariant(self, jobs, capsys):
        # A fault-injecting stack cannot be replicated in pool workers,
        # so --jobs 2 runs every phase serially in the parent and
        # handles exactly the faults --jobs 1 does.
        code = main(["optimize", "ota", "--iterations", "1",
                     "--samples", "2000", "--verify-samples", "60",
                     "--seed", "3", "--inject-faults", "0.05",
                     "--fault-seed", "2", "--jobs", jobs])
        assert code == 0
        assert "108 retries with jitter" in capsys.readouterr().out
