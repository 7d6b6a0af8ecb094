"""Resident daemon runtime: session multiplexing over persistent links.

The acceptance bar of the daemon runtime: a k-daemon mesh sustaining
many *concurrent* clustering sessions over one TCP connection per pair
must produce, for **every** session, labels, a disclosure ledger,
per-pair transcripts, and comparison counts bit-identical to the
single-session runtimes on the same seeds.  The fast paths (spec
validation) run unmarked; everything touching real sockets carries the
``sockets`` marker like the rest of the runtime suite.
"""

import random
import subprocess
import sys

import pytest

from repro.core.config import ProtocolConfig
from repro.data.generators import gaussian_blobs
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh
from repro.net.transcript import transcript_digest
from repro.runtime.client import (
    DaemonFleet,
    SessionClientError,
    run_via_daemons,
)
from repro.runtime.daemon import DaemonError, MeshSpec, mesh_digest
from repro.runtime.manifest import pair_key
from repro.runtime.orchestrator import (
    build_manifest,
    verify_against_in_process,
)
from repro.smc.session import SmcConfig


def workload(parties: int, per_party: int = 2) -> dict[str, list]:
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


def reference_run(by_party, config, seeds, rng_namespace=None):
    mesh = PartyMesh(list(by_party), config.smc, seeds=seeds,
                     rng_namespace=rng_namespace)
    result = run_multiparty_horizontal_dbscan(by_party, config,
                                              seeds=seeds, mesh=mesh)
    digests = {pair_key(*pair): transcript_digest(transcript)
               for pair, transcript in mesh.pair_transcripts().items()}
    return result, digests


def assert_matches_reference(run, reference, digests) -> None:
    assert run.result.labels_by_party == reference.labels_by_party
    assert run.result.ledger.events == reference.ledger.events
    assert run.result.comparisons == reference.comparisons
    assert run.transcript_digests == digests


def spec_ports(names) -> dict[str, int]:
    names = list(names)
    return {pair_key(a, b): 0
            for index, a in enumerate(names)
            for b in names[index + 1:]}


class TestMeshSpec:
    def test_roundtrip_preserves_digest(self):
        spec = MeshSpec(names=("a", "b", "c"),
                        ports={"a": 9001, "b": 9002, "c": 9003},
                        net_delay_s=0.001, engine_workers=2)
        clone = MeshSpec.from_json(spec.to_json())
        assert clone == spec
        assert mesh_digest(clone) == mesh_digest(spec)

    def test_digest_binds_every_link_property(self):
        spec = MeshSpec(names=("a", "b"), ports={"a": 9001, "b": 9002})
        tweaked = MeshSpec(names=("a", "b"),
                           ports={"a": 9001, "b": 9002},
                           net_delay_s=0.5)
        assert mesh_digest(tweaked) != mesh_digest(spec)

    @pytest.mark.parametrize("kwargs,needle", [
        (dict(names=("a",), ports={"a": 1}), "two parties"),
        (dict(names=("a", "a"), ports={"a": 1}), "duplicate"),
        (dict(names=("a", "b"), ports={"a": 1}), "cover exactly"),
        (dict(names=("a", "b"), ports={"a": 1, "b": 2}, timeout_s=0),
         "timeout_s"),
        (dict(names=("a", "b"), ports={"a": 1, "b": 2}, net_delay_s=-1),
         "net_delay_s"),
        (dict(names=("a", "b"), ports={"a": 1, "b": 2},
              engine_workers=0), "engine_workers"),
    ])
    def test_rejects_malformed_specs(self, kwargs, needle):
        with pytest.raises(DaemonError, match=needle):
            MeshSpec(**kwargs)

    def test_slot_order_is_the_pair_orientation(self):
        spec = MeshSpec(names=("zeta", "alpha"),
                        ports={"zeta": 1, "alpha": 2})
        assert spec.ordered_pair("alpha", "zeta") == ("zeta", "alpha")
        assert spec.peers_of("zeta") == ["alpha"]


@pytest.mark.sockets
class TestDaemonEquivalence:
    def test_single_session_bit_identical_to_threaded_runtime(self):
        """One session through resident daemons == the in-process mesh,
        on every protocol observable."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        reference, digests = reference_run(by_party, config, seeds)
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                run = run_via_daemons(by_party, config, seeds,
                                      client=client, timeout=120)
        assert_matches_reference(run, reference, digests)
        assert set(run.reports) == set(by_party)
        info = run.reports["p0"].runtime_info
        assert info["runtime"] == "daemon"
        assert info["session_index"] == 0
        assert info["warm_start"] is False

    def test_eight_concurrent_sessions_all_bit_identical(self):
        """The acceptance test: 8 sessions in flight at once over the
        same three pair connections (with simulated link latency so the
        interleaving is real), every one bit-identical to the
        single-session reference."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        reference, digests = reference_run(by_party, config, seeds)
        ports = spec_ports(by_party)
        with DaemonFleet(list(by_party), net_delay_s=0.001) as fleet:
            with fleet.client() as client:
                handles = [
                    client.submit(
                        build_manifest(by_party, config, seeds,
                                       session_id=f"conc-{index:02d}",
                                       ports=ports),
                        by_party)
                    for index in range(8)]
                runs = [handle.result(180) for handle in handles]
        for run in runs:
            assert_matches_reference(run, reference, digests)
        indices = sorted(run.reports["p0"].runtime_info["session_index"]
                         for run in runs)
        assert indices == list(range(8))

    def test_warm_start_amortization_is_reported(self):
        """Session 0 cold-starts the mesh; every later session reports
        ``warm_start`` and reuses the daemon's engine (cumulative job
        counts grow monotonically across sessions)."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                first = run_via_daemons(by_party, config, seeds,
                                        client=client,
                                        session_id="warm-0", timeout=120)
                second = run_via_daemons(by_party, config, seeds,
                                         client=client,
                                         session_id="warm-1", timeout=120)
        first_info = first.reports["p0"].runtime_info
        second_info = second.reports["p0"].runtime_info
        assert first_info["warm_start"] is False
        assert second_info["warm_start"] is True
        assert second_info["session_index"] == first_info["session_index"] + 1
        assert (second_info["engine"]["jobs"]
                > first_info["engine"]["jobs"])
        assert second_info["pool"]["consumed"] > 0
        assert second_info["daemon_setup_seconds"] >= 0
        assert second_info["setup_seconds"] >= 0

    def test_interleaved_namespaced_sessions_match_serial_references(self):
        """Cross-session isolation: sessions with distinct RNG
        namespaces interleaved on one mesh each match their *own*
        namespace-matched serial reference -- no coin stream leaks
        between concurrent sessions."""
        by_party = workload(3)
        config = make_config()
        jobs = [("iso-a", [41, 42, 43]), ("iso-b", [51, 52, 53]),
                ("iso-c", [61, 62, 63])]
        references = {
            namespace: reference_run(by_party, config, seeds,
                                     rng_namespace=namespace)
            for namespace, seeds in jobs}
        ports = spec_ports(by_party)
        with DaemonFleet(list(by_party), net_delay_s=0.001) as fleet:
            with fleet.client() as client:
                handles = {
                    namespace: client.submit(
                        build_manifest(by_party, config, seeds,
                                       session_id=namespace, ports=ports,
                                       rng_namespace=namespace),
                        by_party)
                    for namespace, seeds in jobs}
                runs = {namespace: handle.result(180)
                        for namespace, handle in handles.items()}
        for namespace, _ in jobs:
            reference, digests = references[namespace]
            assert_matches_reference(runs[namespace], reference, digests)
        # The namespaces actually diverge the wire traffic: different
        # coins, different transcripts.
        digest_sets = [frozenset(references[ns][1].items())
                       for ns, _ in jobs]
        assert len(set(digest_sets)) == len(jobs)


def own_pool_consumption(mesh: PartyMesh) -> dict[str, int]:
    """Factors each party drew from its own pools (actor == party)
    over every pair session of an in-process run."""
    consumed = {name: 0 for name in mesh.names}
    for session_report in mesh.pool_report().values():
        for (actor, _owner), report in session_report.items():
            consumed[actor] += report["consumed"]
    return consumed


@pytest.mark.sockets
class TestRoleLocalExecution:
    """Each daemon executes only the party it hosts: the protocol
    variants whose guarded paths otherwise run on sockets only in the
    slow matrix stay bit-identical, and every daemon consumes exactly
    the randomness its own party consumes in process."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"cache_peer_ciphertexts": True},
        {"blind_cross_sum": True},
    ], ids=["plain", "cached-ciphertexts", "blind-cross-sum"])
    def test_daemon_session_matches_in_process_mesh(self, overrides):
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config(**overrides)
        mesh = PartyMesh(list(by_party), config.smc, seeds=seeds)
        reference = run_multiparty_horizontal_dbscan(
            by_party, config, seeds=seeds, mesh=mesh)
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                run = run_via_daemons(by_party, config, seeds,
                                      client=client, timeout=120)
        checks = verify_against_in_process(run, by_party, config, seeds,
                                           reference=reference, mesh=mesh)
        assert all(checks.values()), checks
        expected = own_pool_consumption(mesh)
        assert all(expected.values())
        for name, report in run.reports.items():
            assert report.runtime_info["pool"]["consumed"] \
                == expected[name], name

    def test_idle_refill_pregenerates_only_the_consumed_factors(self):
        """From the second sequential session on, the randomness
        service prefills and tops up each pool to the session's
        remaining need: every pregenerated factor is consumed."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                runs = [run_via_daemons(by_party, config, seeds,
                                        client=client,
                                        session_id=f"refill-{index}",
                                        timeout=120)
                        for index in range(3)]
        for run in runs[1:]:
            for name, report in run.reports.items():
                pool = report.runtime_info["pool"]
                assert pool["consumed"] > 0 and pool["misses"] == 0
                assert pool["pregenerated"] == pool["consumed"], name


@pytest.mark.sockets
class TestDaemonRejections:
    def test_client_rejects_wrong_partition_cover(self):
        by_party = workload(2)
        seeds = [31, 32]
        config = make_config()
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                manifest = build_manifest(by_party, config, seeds,
                                          ports=spec_ports(by_party))
                with pytest.raises(SessionClientError,
                                   match="cover exactly"):
                    client.submit(manifest, {"p0": by_party["p0"]})

    def test_daemon_refuses_mismatched_manifest_names(self):
        """A manifest naming parties the mesh does not have is refused
        by the daemons and surfaces as a failed session, not a hang."""
        by_party = workload(2)
        seeds = [31, 32]
        config = make_config()
        rogue = {"p0": by_party["p0"], "rogue": by_party["p1"]}
        manifest = build_manifest(rogue, config, seeds,
                                  ports=spec_ports(rogue))
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                with pytest.raises(SessionClientError,
                                   match="do not match the mesh"):
                    client.submit(manifest, rogue)

    def test_duplicate_in_flight_session_id_is_rejected(self):
        by_party = workload(2)
        seeds = [31, 32]
        config = make_config()
        ports = spec_ports(by_party)
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                first = client.submit(
                    build_manifest(by_party, config, seeds,
                                   session_id="dup", ports=ports),
                    by_party)
                with pytest.raises(SessionClientError,
                                   match="already in flight"):
                    client.submit(
                        build_manifest(by_party, config, seeds,
                                       session_id="dup", ports=ports),
                        by_party)
                first.result(120)


@pytest.mark.sockets
class TestDaemonCli:
    def test_submit_spawn_runs_sessions_against_subprocess_daemons(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--spawn",
             "--parties", "2", "--sessions", "2", "--points", "6",
             "--key-bits", "128", "--verify", "--shutdown"],
            capture_output=True, text=True, timeout=240)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("labels=") == 2
        assert "MISMATCH" not in proc.stdout
        assert "warm_start=True" in proc.stdout


@pytest.mark.sockets
class TestDaemonScaleOut:
    def test_sixty_four_concurrent_sessions_with_flat_thread_count(self):
        """The PR-9 acceptance bar: 64 sessions in flight on one 3-party
        mesh, every one bit-identical to the single-session reference,
        with the process's thread count independent of session count
        (the restartable pass model runs sessions as coroutines, not
        threads)."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        reference, digests = reference_run(by_party, config, seeds)
        ports = spec_ports(by_party)
        with DaemonFleet(list(by_party), net_delay_s=0.001,
                         timeout_s=120.0) as fleet:
            with fleet.client() as client:
                handles = [
                    client.submit(
                        build_manifest(by_party, config, seeds,
                                       session_id=f"scale-{index:02d}",
                                       ports=ports),
                        by_party)
                    for index in range(64)]
                runs = [handle.result(600) for handle in handles]
        infos = [run.reports["p0"].runtime_info for run in runs]
        for run in runs:
            assert_matches_reference(run, reference, digests)
        assert sorted(info["session_index"] for info in infos) \
            == list(range(64))
        assert all(info["pass_model"] == "async-restartable"
                   for info in infos)
        # Thread flatness: reports are built at every stage of the
        # burst (1 in flight .. 64 in flight), so a per-session thread
        # would show up as a spread of dozens here.
        threads = [info["thread_count"] for info in infos]
        assert max(threads) - min(threads) <= 4, threads
        # The coroutines genuinely parked mid-query (frames not yet
        # arrived), exercising the restartable path.
        assert sum(info["restarts"] for info in infos) > 0

    def test_submit_wave_isolates_coin_streams(self):
        """``submit_wave`` fans one manifest out under derived
        namespaces: each copy matches its namespace-matched serial
        reference, and the copies' transcripts differ."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        manifest = build_manifest(by_party, config, seeds,
                                  session_id="wave",
                                  ports=spec_ports(by_party))
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                handles = client.submit_wave(manifest, by_party, 3)
                runs = [handle.result(240) for handle in handles]
        assert [run.manifest.session_id for run in runs] \
            == ["wave-w00", "wave-w01", "wave-w02"]
        digest_sets = set()
        for run in runs:
            reference, digests = reference_run(
                by_party, config, seeds,
                rng_namespace=run.manifest.rng_namespace)
            assert_matches_reference(run, reference, digests)
            digest_sets.add(frozenset(digests.items()))
        assert len(digest_sets) == 3


@pytest.mark.sockets
class TestDaemonDrain:
    def test_drain_finishes_in_flight_and_rejects_new_sessions(self):
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        reference, digests = reference_run(by_party, config, seeds)
        ports = spec_ports(by_party)
        with DaemonFleet(list(by_party), net_delay_s=0.002) as fleet:
            with fleet.client() as client:
                running = client.submit(
                    build_manifest(by_party, config, seeds,
                                   session_id="drain-inflight",
                                   ports=ports),
                    by_party)
                client.shutdown_mesh(drain=True)
                late = client.submit(
                    build_manifest(by_party, config, seeds,
                                   session_id="drain-late", ports=ports),
                    by_party)
                with pytest.raises(SessionClientError,
                                   match=r"rejected \(draining\)"):
                    late.result(120)
                run = running.result(240)
        # The drained session is a full-fidelity session, not a rush.
        assert_matches_reference(run, reference, digests)

    def test_hard_shutdown_still_tears_down(self):
        by_party = workload(2)
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                client.shutdown_mesh()
            for member in fleet._members:
                member.thread.join(10)
                assert not member.thread.is_alive()


@pytest.mark.sockets
class TestRandomnessServiceAcrossSessions:
    def test_later_sessions_start_warm_from_learned_demand(self):
        """Session 0 misses its way through (cold pools, no demand
        model); once released, the service prefills session 1's pools
        to the observed demand -- hit rate goes from 0 to 100%."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                runs = [run_via_daemons(by_party, config, seeds,
                                        client=client,
                                        session_id=f"svc-{index}",
                                        timeout=120)
                        for index in range(3)]
        leases = [run.reports["p0"].runtime_info["randomness"]["lease"]
                  for run in runs]
        assert leases[0]["consumed"] > 0
        assert leases[0]["misses"] == leases[0]["consumed"]
        assert leases[0]["prefilled"] == 0
        for lease in leases[1:]:
            assert lease["misses"] == 0
            assert lease["hits"] == lease["consumed"] > 0
            assert lease["prefilled"] >= lease["consumed"]
        service = runs[-1].reports["p0"].runtime_info["randomness"]
        assert service["service"]["sessions_served"] >= 2
        assert service["service"]["factors_prefilled"] > 0
