"""Tests for the command-line interface."""

import os
import random
import re
import signal
import threading
import time

import pytest

from repro.cli import _sigterm_exits, build_parser, main


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

    @pytest.mark.parametrize("flag", [["--prefill", "8"],
                                      ["--no-precompute"]],
                             ids=["prefill", "no-precompute"])
    def test_pool_flags_are_refused(self, flag, capsys):
        """There is no offline phase to ask for: a script still passing
        a pool flag fails loudly instead of running without it."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["demo", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

    @pytest.mark.parametrize("scenario", ["horizontal", "multiparty"])
    def test_summary_is_the_library_run(self, scenario, capsys):
        """The demo runs the library call on its seeds and nothing
        else: its labels, bytes, rounds and comparisons are those of
        ``cluster_partitioned`` (horizontal) or
        ``run_multiparty_horizontal_dbscan`` (multiparty) on the same
        points, config and seeds."""
        from repro.cli import _demo_config, _demo_points
        from repro.core.api import cluster_partitioned
        from repro.crypto.engine import ModexpEngine
        from repro.data.generators import interleave_for_horizontal
        from repro.data.partitioning import HorizontalPartition
        from repro.multiparty.horizontal import (
            run_multiparty_horizontal_dbscan)

        argv = ["demo", "--scenario", scenario, "--points", "6",
                "--backend", "bitwise", "--key-bits", "128",
                "--min-pts", "2", "--seed", "3"]
        assert main(argv) == 0
        lines = [re.sub(r"  time: \S+$", "", line)
                 for line in capsys.readouterr().out.splitlines()]
        args = build_parser().parse_args(argv)
        points = _demo_points(args)
        config = _demo_config(args, ModexpEngine(workers=1))
        if scenario == "multiparty":
            by_party = {"party0": points[:2], "party1": points[2:4],
                        "party2": points[4:]}
            run = run_multiparty_horizontal_dbscan(by_party, config,
                                                   seeds=[3, 4, 5])
            expected = [f"{name}: {labels}"
                        for name, labels in run.labels_by_party.items()]
        else:
            alice_points, bob_points = interleave_for_horizontal(
                points, random.Random(3 + 9))
            run = cluster_partitioned(
                HorizontalPartition(alice_points=tuple(alice_points),
                                    bob_points=tuple(bob_points)), config)
            expected = [f"alice labels: {run.alice_labels}",
                        f"bob   labels: {run.bob_labels}"]
        expected.append(f"bytes: {run.stats['total_bytes']:,}  "
                        f"rounds: {run.stats['rounds']}  "
                        f"comparisons: {run.comparisons}")
        for line in expected:
            assert line in lines

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
        assert args.retry_budget == 3
        assert not args.verify

    @pytest.mark.sockets
    def test_orchestrate_verify_end_to_end(self, capsys):
        """Runs a daemon fleet as subprocesses and checks the
        bit-identical verification lines all pass."""
        exit_code = main(["orchestrate", "--parties", "2", "--points", "6",
                          "--key-bits", "128", "--min-pts", "2",
                          "--verify"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "OS processes over loopback TCP" in output
        # labels / ledger / comparisons / transcripts / stats
        assert output.count("bit-identical") == 5

    @pytest.mark.sockets
    @pytest.mark.faults
    def test_kill_fault_is_recovered_by_a_rerun(self, capsys):
        exit_code = main(["orchestrate", "--parties", "3", "--points", "12",
                          "--key-bits", "128", "--fault",
                          "kill:party1@pass2", "--verify"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert ("recovered: party 'party1' failed (retryable crash): "
                "daemon exited with code 13") in output
        assert "attempts: 2" in output
        assert output.count("bit-identical") == 5


class TestMeshSpecCommand:
    def test_writes_spec_and_one_serve_line_per_party(self, tmp_path,
                                                      capsys):
        """The separate-terminals flow: the spec file plus one
        ``repro serve`` command per party to paste."""
        from repro.runtime.daemon import MeshSpec

        path = tmp_path / "mesh.json"
        exit_code = main(["mesh-spec", str(path), "--parties", "3"])
        assert exit_code == 0
        spec = MeshSpec.from_json(path.read_text())
        assert spec.names == ("party0", "party1", "party2")
        output = capsys.readouterr().out
        serve_lines = [line for line in output.splitlines()
                       if "repro serve" in line]
        assert len(serve_lines) == 3
        for name in spec.names:
            assert any(f"--spec {path} --party {name}" in line
                       for line in serve_lines)
        assert "repro submit --spec" in output


class TestCliInputErrors:
    """Malformed outside input exits 2 with its message, no traceback."""

    @pytest.mark.parametrize("command", ["serve", "submit", "stats"])
    @pytest.mark.parametrize("content,needle", [
        ("[]", "JSON object"),
        ('{"names": 5, "ports": {}}', "'names'"),
    ])
    def test_malformed_spec_file(self, command, content, needle, tmp_path,
                                 capsys):
        path = tmp_path / "mesh.json"
        path.write_text(content)
        argv = [command, "--spec", str(path)]
        if command == "serve":
            argv += ["--party", "party0"]
        assert main(argv) == 2
        error = capsys.readouterr().err
        assert f"repro {command}: {path}" in error
        assert needle in error
        assert "Traceback" not in error

    @pytest.mark.parametrize("fault,needle", [
        ("explode:p1@pass1", "unknown fault kind 'explode'"),
        ("kill:p1@pass1.f2", "take no .f<F>"),
        ("refuse:p0:p0-p1", "unknown fault kind 'refuse'"),
    ])
    def test_bad_fault_spec(self, fault, needle, capsys):
        assert main(["orchestrate", "--key-bits", "128",
                     "--fault", fault]) == 2
        error = capsys.readouterr().err
        assert error.startswith("repro orchestrate: ")
        assert needle in error


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


class TestSigtermExits:
    """``repro submit`` and ``repro orchestrate`` run inside
    ``_sigterm_exits``, so a SIGTERM unwinds their ``finally`` blocks."""

    def test_sigterm_raises_system_exit_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(SystemExit) as exit_info:
            with _sigterm_exits():
                # Never send the signal unless the handler is in place.
                assert signal.getsignal(signal.SIGTERM) != before
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5.0)
        assert exit_info.value.code == 128 + signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) == before

    def test_off_the_main_thread_sigterm_is_left_alone(self):
        before = signal.getsignal(signal.SIGTERM)
        seen = []

        def run():
            with _sigterm_exits():
                seen.append(signal.getsignal(signal.SIGTERM))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=5.0)
        assert seen == [before]
