"""End-to-end observability: live metrics, traces, privacy, CLI.

The acceptance bar of the observability PR: a fully instrumented
3-party daemon run stays bit-identical to the in-process reference; the
standing mesh answers live ``get_metrics`` snapshots with the session,
restart, pool, and per-pair link figures; the emitted traces and
metrics contain *no* private key material (checked against the decimal
expansions of the actual keys the run used); and the ``repro stats`` /
``repro trace summarize`` CLI surfaces work against the same mesh.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.crypto.keycache import cached_paillier_keypair
from repro.runtime.client import DaemonFleet
from repro.runtime.orchestrator import build_manifest
from tests.runtime.test_daemon import (
    assert_matches_reference,
    make_config,
    reference_run,
    spec_ports,
    workload,
)


def _private_decimal_strings(config, parties: int) -> list[str]:
    """Decimal expansions of every private key component the mesh
    derives -- the strings that must never appear in any emission."""
    secrets = []
    for slot in range(parties):
        pair = cached_paillier_keypair(config.smc.paillier_bits,
                                       100 * config.smc.key_seed + slot)
        key = pair.private_key
        secrets += [str(key.lam), str(key.mu), str(key.p), str(key.q)]
    return secrets


@pytest.mark.sockets
class TestInstrumentedMesh:
    def test_instrumented_run_metrics_traces_and_privacy(self, tmp_path):
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        reference, digests = reference_run(by_party, config, seeds)
        trace_dir = tmp_path / "traces"
        names = list(by_party)

        with DaemonFleet(names, metrics_enabled=True,
                         trace_dir=str(trace_dir)) as fleet:
            with fleet.client() as client:
                manifest = build_manifest(by_party, config, seeds,
                                          session_id="obs-e2e-000",
                                          ports=spec_ports(names))
                run = client.run(manifest, by_party, 120)
                snapshots = client.get_metrics(timeout=30)

        # Bit-identity: instrumentation observed, never participated.
        assert_matches_reference(run, reference, digests)

        # Live snapshot shape: every daemon answered with the session,
        # restart, pool, and per-pair link figures `repro stats` needs.
        assert set(snapshots) == set(names)
        for name in names:
            snapshot = snapshots[name]
            assert snapshot["enabled"] is True
            gauges = snapshot["gauges"]
            counters = snapshot["counters"]
            assert gauges["repro_sessions_run"] == 1
            assert gauges["repro_sessions_active"] == 0
            assert counters["repro_sessions_admitted_total"] == 1
            assert counters["repro_sessions_completed_total"] == 1
            assert any(key.startswith("repro_link_frames_total{")
                       for key in counters)
            assert any(key.startswith("repro_link_bytes_total{")
                       for key in counters)
            assert gauges["repro_daemon_threads"] > 0

        # Per-session runtime_info stays the report-level source the
        # bench consumes -- same events as the registry counters.
        info = run.reports[names[0]].runtime_info
        assert info["runtime"] == "daemon"
        assert info["pool"]["consumed"] > 0

        # Traces: one file per party, spans rooted in our session.
        from repro.obs.trace import summarize_trace_dir

        trace_files = sorted(path.name
                             for path in trace_dir.glob("*.jsonl"))
        assert trace_files == sorted(f"{name}.jsonl" for name in names)
        summary = summarize_trace_dir(trace_dir)
        session = summary["sessions"]["obs-e2e-000"]
        assert set(session["parties"]) == set(names)
        for entry in session["parties"].values():
            assert entry["duration"] > 0
            assert len(entry["passes"]) == len(names)
            drive = [row for row in entry["passes"]
                     if row["role"] == "drive"]
            assert len(drive) == 1
            assert drive[0]["queries"] > 0
            assert drive[0]["critical_path"] > 0

        # Privacy: the decimal expansion of no private key component
        # appears in anything the run emitted.
        emitted = json.dumps(snapshots, sort_keys=True)
        for path in trace_dir.glob("*.jsonl"):
            emitted += path.read_text()
        for secret in _private_decimal_strings(config, len(names)):
            assert secret not in emitted

    def test_disabled_metrics_arm_stays_bit_identical(self):
        """The null-instrument fast path produces the same observables
        as the instrumented arm and the in-process reference."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        reference, digests = reference_run(by_party, config, seeds)
        with DaemonFleet(list(by_party), metrics_enabled=False) as fleet:
            with fleet.client() as client:
                manifest = build_manifest(by_party, config, seeds,
                                          session_id="obs-off-000",
                                          ports=spec_ports(by_party))
                run = client.run(manifest, by_party, 120)
                snapshots = client.get_metrics(timeout=30)
        assert_matches_reference(run, reference, digests)
        # A disabled daemon still answers -- with an empty snapshot.
        for snapshot in snapshots.values():
            assert snapshot["enabled"] is False
            assert snapshot["counters"] == {}


@pytest.mark.sockets
class TestObservabilityCli:
    def test_stats_and_trace_summarize(self, tmp_path, capsys,
                                       monkeypatch):
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        trace_dir = tmp_path / "traces"
        names = list(by_party)

        with DaemonFleet(names, trace_dir=str(trace_dir)) as fleet:
            if fleet.psk:
                # An authenticated mesh: `repro stats` finds the secret
                # the way an operator's shell provides it.
                monkeypatch.setenv("REPRO_PSK", fleet.psk)
            spec_path = tmp_path / "mesh.json"
            spec_path.write_text(fleet.spec.to_json())
            with fleet.client() as client:
                manifest = build_manifest(by_party, config, seeds,
                                          session_id="obs-cli-000",
                                          ports=spec_ports(names))
                client.run(manifest, by_party, 120)

            assert cli_main(["stats", "--spec", str(spec_path)]) == 0
            text = capsys.readouterr().out
            for name in names:
                assert f"{name}: sessions run=1" in text
            assert "restarts=" in text and "threads=" in text
            assert "link" in text

            assert cli_main(["stats", "--spec", str(spec_path),
                             "--json"]) == 0
            parsed = json.loads(capsys.readouterr().out)
            assert set(parsed) == set(names)
            assert parsed[names[0]]["enabled"] is True

        assert cli_main(["trace", "summarize",
                         "--trace-dir", str(trace_dir)]) == 0
        text = capsys.readouterr().out
        assert "session obs-cli-000" in text
        for name in names:
            assert f"party {name}:" in text
        assert "[drive]" in text
        assert "critical-path" in text

    def test_trace_summarize_empty_dir_fails_loudly(self, tmp_path,
                                                    capsys):
        assert cli_main(["trace", "summarize",
                         "--trace-dir", str(tmp_path)]) == 1
        assert "no session spans" in capsys.readouterr().err
