"""Orchestrated runs: real party processes over loopback TCP.

The acceptance bar of the runtime: a k-party mesh run with parties as
separate OS processes must produce labels, a disclosure ledger, per-pair
transcripts, comparison counts, and a merged stats snapshot that are
**bit-identical** to the in-process fabric on the same seeds.  The
3-party smoke test runs in tier-1 (``sockets`` marker); the wider
configuration matrix is additionally marked ``slow`` for the weekly job.
"""

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.data.generators import gaussian_blobs
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh
from repro.net.transcript import transcript_digest
from repro.runtime.manifest import UnsupportedConfigError, pair_key
from repro.runtime.orchestrator import (
    OrchestrationError,
    allocate_ports,
    build_manifest,
    orchestrate_run,
)
from repro.smc.session import SmcConfig


def workload(parties: int, per_party: int = 3) -> dict[str, list]:
    points = gaussian_blobs(random.Random(5),
                            centers=[(0.0, 0.0), (4.0, 4.0)],
                            points_per_blob=(parties * per_party + 1) // 2,
                            spread=0.5, scale=10)
    return {f"p{index}": points[index * per_party:(index + 1) * per_party]
            for index in range(parties)}


def make_config(**overrides) -> ProtocolConfig:
    smc = SmcConfig(paillier_bits=128, comparison="bitwise", key_seed=77,
                    mask_sigma=8)
    return ProtocolConfig(eps=1.0, min_pts=3, scale=10, smc=smc,
                          **overrides)


def assert_bit_identical(run, by_party, config, seeds) -> None:
    mesh = PartyMesh(list(by_party), config.smc, seeds=seeds)
    reference = run_multiparty_horizontal_dbscan(by_party, config,
                                                 seeds=seeds, mesh=mesh)
    reference_digests = {
        pair_key(*pair): transcript_digest(transcript)
        for pair, transcript in mesh.pair_transcripts().items()}
    assert run.result.labels_by_party == reference.labels_by_party
    assert run.result.ledger.events == reference.ledger.events
    assert run.result.comparisons == reference.comparisons
    assert run.transcript_digests == reference_digests
    assert run.result.stats == reference.stats


@pytest.mark.sockets
class TestOrchestratedEquivalence:
    def test_three_party_mesh_over_loopback_tcp_bit_identical(self):
        """The acceptance test: three OS processes, one per data holder,
        real TCP links -- every protocol observable identical to the
        in-process mesh."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=120)
        assert run.elapsed_seconds > 0
        assert set(run.reports) == set(by_party)
        assert_bit_identical(run, by_party, config, seeds)


@pytest.mark.sockets
@pytest.mark.slow
class TestOrchestratedMatrix:
    @pytest.mark.parametrize("parties", [2, 4])
    def test_party_counts(self, parties):
        by_party = workload(parties)
        seeds = list(range(61, 61 + parties))
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=180)
        assert_bit_identical(run, by_party, config, seeds)

    @pytest.mark.parametrize("blind,query_constant", [
        (True, False), (True, True),
    ])
    def test_blind_modes(self, blind, query_constant):
        by_party = workload(3)
        seeds = [41, 42, 43]
        config = make_config(blind_cross_sum=blind,
                             query_constant_blinding=query_constant)
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=180)
        assert_bit_identical(run, by_party, config, seeds)

    def test_cached_peer_ciphertexts(self):
        by_party = workload(3)
        seeds = [51, 52, 53]
        config = make_config(cache_peer_ciphertexts=True)
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=180)
        assert_bit_identical(run, by_party, config, seeds)

    def test_empty_partition_party(self):
        by_party = workload(3)
        by_party["p1"] = []
        seeds = [71, 72, 73]
        config = make_config()
        run = orchestrate_run(by_party, config, seeds=seeds,
                              deadline_s=180)
        assert_bit_identical(run, by_party, config, seeds)


@pytest.mark.sockets
class TestOrchestratorFailurePaths:
    def test_party_death_is_named_with_exit_code(self):
        """Failure injection: one party dies hard mid-run; the
        orchestrator must name it, report the exit code, and tear the
        fleet down instead of hanging."""
        by_party = workload(3)
        with pytest.raises(OrchestrationError) as excinfo:
            # retry_budget=0: the legacy hook re-fires on every
            # incarnation, so a resume could never outrun it anyway.
            orchestrate_run(by_party, make_config(), seeds=[31, 32, 33],
                            deadline_s=120, retry_budget=0,
                            fault_injection={"p1": 1})
        message = str(excinfo.value)
        assert "'p1'" in message
        assert "code 13" in message
        assert excinfo.value.failures
        assert excinfo.value.failures[-1].party == "p1"

    def test_unsupported_config_refused_before_spawn(self):
        with pytest.raises(UnsupportedConfigError, match="bitwise"):
            orchestrate_run(
                workload(2),
                ProtocolConfig(eps=1.0, min_pts=3, scale=10,
                               smc=SmcConfig(comparison="oracle",
                                             key_seed=1)),
                seeds=[1, 2])

    def test_missing_seeds_refused(self):
        with pytest.raises(OrchestrationError, match="seed"):
            orchestrate_run(workload(2), make_config(), seeds=None)


@pytest.mark.sockets
class TestRunDirCleanup:
    def test_temp_run_dir_removed_even_when_the_run_aborts(
            self, monkeypatch):
        """The cleanup bugfix bar: an aborted run must still reap its
        children and remove the temporary run directory."""
        import pathlib
        import tempfile

        created = []
        real_mkdtemp = tempfile.mkdtemp

        def spying_mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            created.append(path)
            return path

        monkeypatch.setattr(tempfile, "mkdtemp", spying_mkdtemp)
        with pytest.raises(OrchestrationError):
            orchestrate_run(workload(2), make_config(), seeds=[31, 32],
                            deadline_s=120, retry_budget=0,
                            fault_injection={"p1": 1})
        assert created, "the orchestrator must have made a temp run dir"
        assert not pathlib.Path(created[0]).exists()

    def test_keep_run_dir_preserves_recovery_artifacts(self, monkeypatch):
        import pathlib
        import shutil
        import tempfile

        created = []
        real_mkdtemp = tempfile.mkdtemp

        def spying_mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            created.append(path)
            return path

        monkeypatch.setattr(tempfile, "mkdtemp", spying_mkdtemp)
        try:
            orchestrate_run(workload(2), make_config(), seeds=[31, 32],
                            deadline_s=120, keep_run_dir=True)
            run_dir = pathlib.Path(created[0])
            assert run_dir.exists()
            assert (run_dir / "manifest.json").exists()
            # Pass-boundary checkpoints are written on fault-free runs
            # too -- that is what makes a later crash recoverable.
            assert (run_dir / "checkpoint_p0.json").exists()
            assert (run_dir / "checkpoint_p1.json").exists()
            assert (run_dir / "report_p0.json").exists()
        finally:
            for path in created:
                shutil.rmtree(path, ignore_errors=True)


class TestOrchestratorPlumbing:
    def test_allocate_ports_distinct(self):
        ports = allocate_ports(6)
        assert len(set(ports)) == 6

    def test_build_manifest_value_bound_matches_in_process(self):
        from repro.data.quantize import squared_distance_bound
        by_party = workload(3)
        manifest = build_manifest(by_party, make_config(), [1, 2, 3])
        all_points = [p for points in by_party.values() for p in points]
        assert manifest.value_bound \
            == squared_distance_bound(all_points, all_points)
        assert manifest.counts == {name: len(points)
                                   for name, points in by_party.items()}
