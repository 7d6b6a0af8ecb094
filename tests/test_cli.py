"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.scenario == "horizontal"
        assert args.backend == "bitwise"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--scenario", "quantum"])


class TestDemoCommand:
    @pytest.mark.parametrize("scenario", ["horizontal", "enhanced",
                                          "vertical", "arbitrary"])
    def test_two_party_scenarios(self, scenario, capsys):
        exit_code = main(["demo", "--scenario", scenario, "--points", "8",
                          "--backend", "oracle", "--min-pts", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "labels" in output
        assert "disclosures" in output

    def test_multiparty_scenario(self, capsys):
        exit_code = main(["demo", "--scenario", "multiparty",
                          "--points", "9", "--backend", "oracle",
                          "--min-pts", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "party0" in output and "party2" in output

    def test_crypto_backend_small(self, capsys):
        exit_code = main(["demo", "--points", "4", "--min-pts", "2",
                          "--backend", "bitwise"])
        assert exit_code == 0
        assert "bytes" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario", ["horizontal", "multiparty"])
    def test_summary_prints_rounds(self, scenario, capsys):
        """The two-party and the multiparty summary lines both report
        the run's communication rounds."""
        exit_code = main(["demo", "--scenario", scenario, "--points", "9",
                          "--backend", "oracle", "--min-pts", "2"])
        assert exit_code == 0
        rounds = re.search(r"\brounds: (\d+)", capsys.readouterr().out)
        assert rounds is not None
        assert int(rounds.group(1)) > 0

    def test_key_too_small_for_dgk_exits_2(self, capsys):
        exit_code = main(["demo", "--points", "4", "--key-bits", "64"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "repro demo: a 64-bit key is too small" in captured.err
        assert "at least 128 bits" in captured.err
        assert "labels" not in captured.out


class TestOrchestrateCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["orchestrate"])
        assert args.parties == 3
        assert not args.verify
        assert not args.prepare_only

    def test_party_requires_run_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["party", "--party", "p0"])

    def test_prepare_only_writes_run_dir_and_commands(self, tmp_path,
                                                      capsys):
        exit_code = main(["orchestrate", "--parties", "2", "--points", "6",
                          "--key-bits", "128", "--prepare-only",
                          "--run-dir", str(tmp_path / "run")])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "separate" in output or "terminal" in output
        assert (tmp_path / "run" / "manifest.json").exists()
        assert (tmp_path / "run" / "partition_party0.json").exists()
        assert (tmp_path / "run" / "partition_party1.json").exists()
        for name in ("party0", "party1"):
            assert f"--party {name}" in output

    def test_prepare_only_requires_run_dir(self):
        with pytest.raises(SystemExit):
            main(["orchestrate", "--prepare-only"])

    @pytest.mark.sockets
    def test_orchestrate_verify_end_to_end(self, capsys):
        """Spawns real party subprocesses and checks the bit-identical
        verification lines all pass."""
        exit_code = main(["orchestrate", "--parties", "2", "--points", "6",
                          "--key-bits", "128", "--min-pts", "2",
                          "--verify"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "OS processes over loopback TCP" in output
        # labels / ledger / comparisons / transcripts / stats
        assert output.count("bit-identical") == 5
        assert "MISMATCH" not in output


class TestAttackCommand:
    def test_attack_table(self, capsys):
        exit_code = main(["attack", "--observers", "3",
                          "--samples", "5000"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "kumar_area" in output
        assert output.count("\n") >= 5


class TestFiguresCommand:
    def test_renders_all_three(self, capsys):
        exit_code = main(["figures"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "Figure 3" in output
        assert "Figure 4" in output
        assert "attr1" in output
