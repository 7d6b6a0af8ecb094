"""Resident daemon runtime: session multiplexing over persistent links.

The acceptance bar of the daemon runtime: a k-daemon mesh sustaining
many *concurrent* clustering sessions over one TCP connection per pair
must produce, for **every** session, labels, a disclosure ledger,
per-pair transcripts, and comparison counts bit-identical to the
single-session runtimes on the same seeds.  The fast paths (spec
validation) run unmarked; everything touching real sockets carries the
``sockets`` marker like the rest of the runtime suite.
"""

import asyncio
import json
import logging
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter

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


def start_record(manifest, by_party: dict, name: str) -> bytes:
    """Daemon ``name``'s start record of the session, with its own
    partition from ``by_party``."""
    from repro.net.serialization import serialize_message
    from repro.runtime.daemon import CONTROL_START_SESSION

    return serialize_message([
        CONTROL_START_SESSION, manifest.to_json(),
        json.dumps([list(point) for point in by_party[name]])])


def send_start(client, manifest, by_party: dict, name: str) -> None:
    """Send daemon ``name`` the session's start record."""
    assert client._call(client._send_each(
        {name: start_record(manifest, by_party, name)})) == {}


def submit_per_daemon(client, manifests: dict, by_party: dict):
    """Hand each named daemon its own manifest of one session id -- what
    ``SessionClient.submit`` never does -- and return the session's
    handle.  A daemon missing from ``manifests`` does not hear of the
    session here (:func:`send_start` can tell it later)."""
    from repro.runtime.client import SessionHandle

    first = next(iter(manifests.values()))
    handle = SessionHandle(client, first)
    client._call(client._submit(handle, {
        name: start_record(manifest, by_party, name)
        for name, manifest in manifests.items()}))
    return handle


def wait_until(predicate, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"condition not met within {timeout}s")
        time.sleep(0.01)


def wait_for_failures(handle, parties, timeout: float) -> dict:
    """The failure reports of ``parties``, once all of them are in."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with handle._lock:
            if set(parties) <= set(handle._errors):
                return {party: handle._errors[party] for party in parties}
        time.sleep(0.05)
    raise AssertionError(f"no failure from {parties} within {timeout}s: "
                         f"{sorted(handle._errors)}")


def frames_in(daemon, kind: str) -> int:
    """Inbound mux frames of ``kind`` over all of the daemon's links."""
    return sum(value for key, value
               in daemon.metrics.snapshot()["counters"].items()
               if key.startswith("repro_link_frames_total{")
               and "dir=in" in key and f"kind={kind}," in key)


def session_tags_left(daemons, session_id: str) -> list:
    """The views of the session's tags still open on the daemons' hubs."""
    return [(daemon.name, tag) for daemon in daemons
            for hub in daemon.hubs.values() for tag in list(hub._sessions)
            if tag.split("#")[0] == session_id]


def first_flight_tags(by_party: dict, session_id: str, receiver: str):
    """The tags the peers' first flights open on ``receiver``'s hubs:
    each peer's session tag, and the stream of each of its drive pass's
    first-window queries to ``receiver``."""
    from repro.runtime.async_pass import POINTS_IN_FLIGHT

    return sorted(
        (receiver, tag) for peer, points in by_party.items()
        if peer != receiver
        for tag in [session_id, *(
            f"{session_id}#{peer}#{query}"
            for query in range(min(POINTS_IN_FLIGHT, len(points)))
            if by_party[receiver])])


def first_flight_messages(mesh, sender: str, receiver: str) -> int:
    """The protocol messages of ``sender``'s first flight to
    ``receiver``, read off the in-process mesh after its run: the key
    announcement, and each first-window query's messages up to the
    receiver's first reply."""
    from repro.runtime.async_pass import POINTS_IN_FLIGHT

    pair = mesh._pair_key(sender, receiver)
    messages = sum(entry.sender == sender
                   for entry in mesh._channels[pair].transcript.entries)
    for (driver, query), stream in mesh._streams[pair].items():
        if driver == sender and query < POINTS_IN_FLIGHT:
            entries = stream.channel.transcript.entries
            messages += next(index for index, entry in enumerate(entries)
                             if entry.sender != sender)
    return messages


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

    @pytest.mark.parametrize("payload,needle", [
        ("[]", "JSON object, got list"),
        ('"x"', "JSON object, got str"),
        ('{"names": 5, "ports": {}}', "'names'"),
        ('{"names": ["a", "b"], "ports": []}', "'ports'"),
        ('{"names": ["a", "b"], "ports": {"a": 1, "b": 2}, '
         '"timeout_s": "soon"}', "'timeout_s'"),
        ('{"ports": {"a": 1, "b": 2}}', "missing field 'names'"),
    ])
    def test_from_json_names_the_malformed_field(self, payload, needle):
        with pytest.raises(DaemonError, match=needle):
            MeshSpec.from_json(payload)

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


@pytest.mark.sockets
class TestRoleLocalExecution:
    """Each daemon executes only the party it hosts: the protocol
    variants whose guarded paths otherwise run on sockets only in the
    slow matrix stay bit-identical, and every daemon does exactly the
    key work its own party does in process, computing each factor
    once: a query that waits for a frame suspends and resumes, it
    never runs again."""

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

    def test_each_party_does_its_key_work_once(self, key_work):
        """Per party, a session decrypts as many Paillier batches of as
        many ciphertexts, encrypts as many DGK bit lists and computes as
        many randomness factors on the daemons as in process: each
        daemon runs each of its queries once."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        mesh = PartyMesh(list(by_party), config.smc, seeds=seeds)
        # By key modulus; decryptions by (modulus, ciphertexts opened).
        kinds = ("decrypt", "dgk_bits", "factors")
        for moduli in key_work.values():
            moduli.clear()
        run_multiparty_horizontal_dbscan(by_party, config, mesh=mesh)
        in_process = {kind: Counter(key_work[kind]) for kind in kinds}
        for moduli in key_work.values():
            moduli.clear()
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                run_via_daemons(by_party, config, seeds, client=client,
                                timeout=120)
        assert {kind: Counter(key_work[kind])
                for kind in kinds} == in_process
        # Every party decrypted and encrypted its bits under its own key.
        assert all(len(counts) == len(by_party)
                   for counts in in_process.values()), in_process

    def test_later_sessions_carry_no_coins_over(self):
        """A daemon carries no randomness from one session to the next:
        its second session on the same seeds is its first again, bit
        for bit."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        mesh = PartyMesh(list(by_party), config.smc, seeds=seeds)
        reference = run_multiparty_horizontal_dbscan(
            by_party, config, seeds=seeds, mesh=mesh)
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                runs = [run_via_daemons(by_party, config, seeds,
                                        client=client,
                                        session_id=f"later-{index}",
                                        timeout=120)
                        for index in range(2)]
        for run in runs:
            checks = verify_against_in_process(
                run, by_party, config, seeds, reference=reference,
                mesh=mesh)
            assert all(checks.values()), checks

    def test_cached_coordinates_cross_once_per_peer_point_per_pass(self):
        """With cached peer ciphertexts the query on a pass's point 0
        uploads the peer's coordinates and the pass's other queries read
        them, on both ends: one upload per (pass, peer), one entry per
        peer point, the same bits in process and on the daemons."""
        from repro.net.serialization import deserialize_message

        by_party = workload(3, per_party=3)
        seeds = [31, 32, 33]
        config = make_config(cache_peer_ciphertexts=True)
        mesh = PartyMesh(list(by_party), config.smc, seeds=seeds)
        reference = run_multiparty_horizontal_dbscan(
            by_party, config, seeds=seeds, mesh=mesh)
        uploads = {}
        for transcript in mesh.pair_transcripts().values():
            for entry in transcript.entries:
                if entry.label.endswith("/coords"):
                    ids = [point_id for point_id, _ in
                           deserialize_message(entry.wire)]
                    uploads.setdefault((entry.receiver, entry.sender),
                                       []).append(ids)
        assert uploads == {(driver, peer): [[0, 1, 2]]
                           for driver in by_party for peer in by_party
                           if peer != driver}
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                run = run_via_daemons(by_party, config, seeds,
                                      client=client, timeout=120)
        checks = verify_against_in_process(run, by_party, config, seeds,
                                           reference=reference, mesh=mesh)
        assert all(checks.values()), checks

    def test_retested_noise_seed_counts_one_test_per_point(self):
        """The data set on which a serial traversal tested a noise seed
        twice: on the daemons too every point takes one test, so the
        messages are exactly k(k-1) + 5(k-1) per point."""
        from tests.multiparty.test_order_free import RETESTED_NOISE_SEED

        seeds = [31, 32, 33]
        config = make_config()
        with DaemonFleet(list(RETESTED_NOISE_SEED)) as fleet:
            with fleet.client() as client:
                run = run_via_daemons(RETESTED_NOISE_SEED, config, seeds,
                                      client=client, timeout=120)
        checks = verify_against_in_process(run, RETESTED_NOISE_SEED,
                                           config, seeds)
        assert all(checks.values()), checks
        k, points = 3, sum(map(len, RETESTED_NOISE_SEED.values()))
        assert run.result.stats["total_messages"] \
            == k * (k - 1) + 5 * (k - 1) * points
        assert run.result.labels_by_party["p0"] == (1, 1)

    def test_traversal_out_of_point_order_is_bit_identical(self):
        """In process the first density tests follow the traversal --
        p0's point 2 before its point 1 -- while the daemons ask every
        point at once: the same bits either way."""
        from tests.multiparty.test_order_free import OUT_OF_POINT_ORDER

        seeds = [31, 32, 33]
        config = make_config()
        with DaemonFleet(list(OUT_OF_POINT_ORDER)) as fleet:
            with fleet.client() as client:
                run = run_via_daemons(OUT_OF_POINT_ORDER, config, seeds,
                                      client=client, timeout=120)
        checks = verify_against_in_process(run, OUT_OF_POINT_ORDER,
                                           config, seeds)
        assert all(checks.values()), checks
        assert run.result.labels_by_party["p0"] == (1, -1, 1)

    @pytest.mark.parametrize("overrides", [
        {},
        {"cache_peer_ciphertexts": True},
        {"blind_cross_sum": True},
    ], ids=["plain", "cached-ciphertexts", "blind-cross-sum"])
    def test_later_streams_are_built_as_their_points_enter_the_window(
            self, overrides, monkeypatch):
        """With more points per party than a pass keeps in flight, the
        first flight builds only the drive pass's first-window streams;
        the rest, and every respond role's, are built as their points
        start, and the session stays bit-identical."""
        from repro.runtime.async_pass import POINTS_IN_FLIGHT
        from repro.runtime.daemon import PartyDaemon

        by_party = workload(3, per_party=POINTS_IN_FLIGHT + 2)
        seeds = [31, 32, 33]
        config = make_config(**overrides)
        built_for_flight = {}
        build_streams = PartyDaemon._build_streams

        def recording(daemon, state, *args):
            build_streams(daemon, state, *args)
            built_for_flight[daemon.name] = sorted(state.streams)

        monkeypatch.setattr(PartyDaemon, "_build_streams", recording)
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
        for name in by_party:
            assert built_for_flight[name] == sorted(
                (peer, name, query) for peer in by_party if peer != name
                for query in range(POINTS_IN_FLIGHT)), name


@pytest.mark.sockets
class TestOverlappedPasses:
    """A daemon runs all of its pass roles at once, and each role all of
    its queries at once, one per (driver's point, peer) on its own
    stream: over 50 ms links every daemon's pass spans share a common
    instant, and so do every drive pass's queries; a drive pass lasts
    about four link delays, not four per point it tests; its first
    query leaves in the session's first flight, with the sync record and
    the key announcements, before the peers' records are checked one
    link delay in; no control record but the sync crosses a pair link;
    and the session stays bit-identical to the in-process mesh, stats
    and rounds included."""

    def test_pass_spans_overlap_and_session_is_bit_identical(
            self, tmp_path):
        from repro.obs.trace import (
            format_trace_summary,
            read_trace_dir,
            summarize_trace_dir,
        )

        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        delay = 0.05
        # The reference runs first: it derives every party's keys into
        # this process's key cache, so the daemons' session starts warm,
        # as a standing mesh's sessions do, and its timings hold no key
        # generation.
        mesh = PartyMesh(list(by_party), config.smc, seeds=seeds)
        reference = run_multiparty_horizontal_dbscan(
            by_party, config, seeds=seeds, mesh=mesh)
        with DaemonFleet(list(by_party), net_delay_s=delay,
                         trace_dir=str(tmp_path)) as fleet:
            controls = {daemon.name: frames_in(daemon, "c")
                        for daemon in fleet.daemons}
            with fleet.client() as client:
                run = run_via_daemons(by_party, config, seeds,
                                      client=client, session_id="overlap",
                                      timeout=120)
            # The session syncs are the only control records: one from
            # each peer, on each daemon.
            for daemon in fleet.daemons:
                assert frames_in(daemon, "c") \
                    == controls[daemon.name] + len(by_party) - 1, \
                    daemon.name
        checks = verify_against_in_process(run, by_party, config, seeds,
                                           reference=reference, mesh=mesh)
        assert all(checks.values()), checks
        spans = read_trace_dir(tmp_path)
        summary = summarize_trace_dir(tmp_path)["sessions"]["overlap"]
        # Every timing assertion's message carries the session's trace
        # summary -- each party's first query, sync check and pass
        # durations -- so a missed bound names itself and the stall.
        timeline = format_trace_summary({"sessions": {"overlap": summary}})
        passes = {}
        for span in spans:
            if span["kind"] == "pass":
                passes.setdefault(span["party"], []).append(span)
        assert sorted(passes) == sorted(by_party)
        for party, party_passes in passes.items():
            assert sorted(span["attrs"]["index"]
                          for span in party_passes) == [0, 1, 2], party
            # One instant inside every pass of this daemon.
            assert max(span["t0"] for span in party_passes) \
                < min(span["t1"] for span in party_passes), \
                f"{party}: its passes share no instant\n{timeline}"
            [drive] = [span for span in party_passes
                       if span["attrs"]["role"] == "drive"]
            queries = [span for span in spans
                       if span["party"] == party
                       and span["parent"] == drive["id"]
                       and span["kind"] == "peer_query"]
            # Both points against both peers, all in flight at once.
            assert len(queries) == 4, party
            assert max(span["t0"] for span in queries) \
                < min(span["t1"] for span in queries), \
                f"{party}: its drive queries share no instant\n{timeline}"
            # Four link delays plus CPU; two tests in series wait at
            # least eight.  (The three daemons here share one
            # interpreter lock: on a 2-CPU host a pass read 0.24-0.33 s,
            # so six link delays would not be a reliable bound.)
            assert drive["dur"] < 8 * delay, \
                (f"{party}: drive pass {drive['dur']:.3f}s, bound "
                 f"{8 * delay:.3f}s\n{timeline}")
        for party, entry in summary["parties"].items():
            assert entry["passes_union"] < entry["passes_sum"], \
                f"{party}: passes ran in series\n{timeline}"
            # The first queries leave with the sync record, and the
            # peers' records arrive one link delay later; when the
            # queries waited for the check, they left about one link
            # delay in, and before the one-flight setup about three.
            assert entry["first_query"] < delay, \
                (f"{party}: first query at {entry['first_query']}s, "
                 f"bound {delay:.3f}s\n{timeline}")
            assert entry["first_query"] < entry["sync_checked"] \
                < 2 * delay, \
                (f"{party}: first query at {entry['first_query']}s, sync "
                 f"checked at {entry['sync_checked']}s, bound "
                 f"{2 * delay:.3f}s\n{timeline}")
            assert run.reports[party].runtime_info["setup_seconds"] \
                == entry["setup"]
        setup_spans = {}
        for span in spans:
            if span["kind"] in ("sync", "adopt"):
                setup_spans.setdefault(span["party"], []).append(
                    span["name"])
        for party in by_party:
            assert sorted(setup_spans[party]) == sorted(
                ["sync"] + [f"keys:{peer}" for peer in by_party
                            if peer != party]), party

    def test_finished_session_leaves_no_view_on_any_hub(self):
        """The session's own tag and the stream tag of every query of
        both passes over every pair are released on every daemon."""
        by_party = workload(3)
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                run_via_daemons(by_party, make_config(), [31, 32, 33],
                                client=client, session_id="done",
                                timeout=120)
            for daemon in fleet.daemons:
                for hub in daemon.hubs.values():
                    assert not [tag for tag in hub._sessions
                                if tag.startswith("done")], daemon.name

    def test_a_failing_role_cancels_its_siblings_with_its_own_cause(self):
        """The pass roles run as one task group: the first failure
        cancels the roles still waiting and propagates as itself -- not
        as an exception group -- so it stays classifiable."""
        import asyncio

        from repro.net.transport import TransportClosedError
        from repro.runtime.daemon import _run_together
        from repro.runtime.failure import (
            CAUSE_CONNECTION_LOST,
            classify_exception,
        )

        cancelled = []

        async def waits_forever():
            try:
                await asyncio.Event().wait()
            except asyncio.CancelledError:
                cancelled.append(True)
                raise

        async def fails():
            await asyncio.sleep(0.01)
            raise TransportClosedError("link closed")

        async def finishes():
            return 7

        with pytest.raises(TransportClosedError) as excinfo:
            asyncio.run(_run_together([waits_forever(), fails(),
                                       finishes()]))
        assert cancelled == [True]
        assert classify_exception(excinfo.value)[0] == CAUSE_CONNECTION_LOST
        assert asyncio.run(_run_together([finishes(), finishes()])) \
            == [7, 7]


def silence_after_sync(daemon, seconds: float) -> None:
    """Make ``daemon`` send its sync record, read its peers' records and
    then say nothing -- no key announcement, no pass role -- until it
    gives up after ``seconds``."""
    async def silence(*args):
        await asyncio.sleep(seconds)
        raise RuntimeError("silent peer gives up")

    daemon._announce_keys = lambda state: None
    daemon._pass_role = silence


@pytest.mark.sockets
class TestSetupSafety:
    """The single-flight start keeps its gates: only the first flight --
    the sync record, the key announcements and the first-window queries
    under the sender's own key -- leaves before the peers' sync records
    checked out, nothing under a peer's key before its announcement
    passed the checks, and a silent peer at any setup wait is a typed,
    retryable timeout within ``timeout_s``."""

    TIMEOUT_S = 2.0

    def test_sync_digest_mismatch_lets_only_the_first_flight_leave(
            self, tmp_path):
        """Every daemon fails naming the mismatch and receives exactly
        its peers' first flights and nothing more: no key is adopted,
        no query served, and no view of the session is left on any
        hub."""
        from repro.obs.trace import read_trace_dir

        by_party = workload(3)
        config = make_config()
        seeds = [31, 32, 33]
        ours = build_manifest(by_party, config, seeds,
                              session_id="mismatch")
        theirs = build_manifest(by_party, config, [31, 32, 34],
                                session_id="mismatch")
        mesh = PartyMesh(list(by_party), config.smc, seeds=seeds)
        run_multiparty_horizontal_dbscan(by_party, config, seeds=seeds,
                                         mesh=mesh)
        with DaemonFleet(list(by_party), timeout_s=self.TIMEOUT_S,
                         trace_dir=str(tmp_path)) as fleet:

            def frames():
                return {daemon.name: (frames_in(daemon, "m"),
                                      frames_in(daemon, "c"))
                        for daemon in fleet.daemons}

            before = frames()
            # Per daemon, one sync record from each peer, and each
            # peer's key announcement and first-window query frames.
            expected = {
                name: (messages + sum(
                    first_flight_messages(mesh, peer, name)
                    for peer in by_party if peer != name),
                       controls + len(by_party) - 1)
                for name, (messages, controls) in before.items()}
            with fleet.client() as client:
                # p1 hears of the session only once p0's and p2's
                # flights wait on its hubs.  p0 and p2 hold each other's
                # mismatched record long before p1's arrives; a check
                # that failed at once would release the session before
                # p1's record re-opened it for good.  p1's check holds
                # every record at once and still lets its own flight
                # leave first.
                handle = submit_per_daemon(
                    client, {"p0": ours, "p2": theirs}, by_party)
                late = fleet.daemons[1]
                wait_until(lambda: sorted(session_tags_left(
                    [late], "mismatch")) == first_flight_tags(
                        by_party, "mismatch", "p1"), timeout=10)
                send_start(client, ours, by_party, "p1")
                failures = wait_for_failures(handle, list(by_party),
                                             timeout=30)
            wait_until(lambda: frames() == expected, timeout=5)
            time.sleep(0.2)
            assert frames() == expected
            assert session_tags_left(fleet.daemons, "mismatch") == []
        for party, failure in failures.items():
            assert "manifest digest mismatch" in failure.message, party
        spans = read_trace_dir(tmp_path)
        assert [span for span in spans if span["kind"] == "adopt"] == []
        assert [span for span in spans if span["kind"] == "peer_query"
                and span["name"].startswith("serve")] == []

    def test_unpinned_key_fails_before_any_query_is_served(
            self, tmp_path):
        import dataclasses

        from repro.obs.trace import read_trace_dir

        by_party = workload(3)
        config = make_config()
        manifest = build_manifest(by_party, config, [31, 32, 33],
                                  session_id="unpinned")
        digests = dict(manifest.key_digests)
        digests["p0"] = digests["p1"]
        manifest = dataclasses.replace(manifest, key_digests=digests)
        with DaemonFleet(list(by_party), timeout_s=self.TIMEOUT_S,
                         trace_dir=str(tmp_path)) as fleet:
            with fleet.client() as client:
                handle = client.submit(manifest, by_party)
                failures = wait_for_failures(handle, ["p1", "p2"],
                                             timeout=30)
                wait_for_failures(handle, ["p0"], timeout=30)
        for party, failure in failures.items():
            assert "pinned digest" in failure.message, party
            assert failure.classification == "fatal", party
        served = [span for span in read_trace_dir(tmp_path)
                  if span["kind"] == "peer_query"
                  and span["name"].startswith("serve")
                  and span["attrs"].get("peer") == "p0"]
        assert served == []

    def test_silent_announcer_is_a_typed_timeout(self, tmp_path):
        """p2 sends its sync record and then says nothing: p0 and p1
        fail with a retryable timeout, their drive roles -- already
        running, parked on p2 -- are cancelled, and once p2 gives up no
        view of the session is left on any hub."""
        from repro.obs.trace import read_trace_dir

        by_party = workload(3)
        with DaemonFleet(list(by_party), timeout_s=self.TIMEOUT_S,
                         trace_dir=str(tmp_path)) as fleet:
            silence_after_sync(fleet.daemons[2], 2 * self.TIMEOUT_S)
            started = time.monotonic()
            with fleet.client() as client:
                handle = client.submit(
                    build_manifest(by_party, make_config(), [31, 32, 33],
                                   session_id="silent"), by_party)
                failures = wait_for_failures(handle, ["p0", "p1"],
                                             timeout=30)
                elapsed = time.monotonic() - started
                wait_for_failures(handle, ["p2"], timeout=30)
            for party, failure in failures.items():
                assert failure.cause == "timeout", failure
                assert failure.classification == "retryable", failure
            assert elapsed < self.TIMEOUT_S + 1.5
            assert session_tags_left(fleet.daemons, "silent") == []
        drives = {span["party"]: span for span in read_trace_dir(tmp_path)
                  if span["kind"] == "pass"
                  and span["attrs"].get("role") == "drive"}
        for party in ("p0", "p1"):
            assert drives[party]["attrs"]["error"] == "CancelledError"
        assert "p2" not in drives

    def test_a_late_adoption_deadline_still_cancels_the_drive_roles(
            self, tmp_path):
        """The race of two deadlines on one silent peer, forced: p0's
        and p1's waits for p2's announcement start half a second late,
        so their drive queries' frame waits would expire first.  A
        frame wait starts only once the peer's keys are adopted, so the
        announcement's timeout still fails the session and the drive
        roles end cancelled, not timed out."""
        from repro.obs.trace import read_trace_dir

        by_party = workload(3)
        with DaemonFleet(list(by_party), timeout_s=self.TIMEOUT_S,
                         trace_dir=str(tmp_path)) as fleet:
            silence_after_sync(fleet.daemons[2], 2 * self.TIMEOUT_S)
            for daemon in fleet.daemons[:2]:
                def late(*args, adopt=daemon._adopt_keys):
                    async def adopt_late():
                        await asyncio.sleep(0.5)
                        await adopt(*args)
                    return adopt_late()

                daemon._adopt_keys = late
            with fleet.client() as client:
                handle = client.submit(
                    build_manifest(by_party, make_config(), [31, 32, 33],
                                   session_id="late"), by_party)
                failures = wait_for_failures(handle, ["p0", "p1"],
                                             timeout=30)
                wait_for_failures(handle, ["p2"], timeout=30)
            for party, failure in failures.items():
                assert failure.cause == "timeout", failure
            assert session_tags_left(fleet.daemons, "late") == []
        drives = {span["party"]: span for span in read_trace_dir(tmp_path)
                  if span["kind"] == "pass"
                  and span["attrs"].get("role") == "drive"}
        for party in ("p0", "p1"):
            assert drives[party]["attrs"]["error"] == "CancelledError"

    def test_silent_sync_peer_is_a_retryable_timeout(self, tmp_path):
        """A peer that never sends its sync record: the same typed
        timeout as silence mid-protocol, so orchestrate re-runs it, and
        no key is adopted meanwhile."""
        from repro.obs.trace import read_trace_dir

        by_party = workload(3)
        manifest = build_manifest(by_party, make_config(), [31, 32, 33],
                                  session_id="unsynced")
        with DaemonFleet(list(by_party), timeout_s=self.TIMEOUT_S,
                         trace_dir=str(tmp_path)) as fleet:
            started = time.monotonic()
            with fleet.client() as client:
                handle = submit_per_daemon(
                    client, {"p0": manifest, "p1": manifest}, by_party)
                failures = wait_for_failures(handle, ["p0", "p1"],
                                             timeout=30)
            elapsed = time.monotonic() - started
            for party, failure in failures.items():
                assert failure.cause == "timeout", failure
                assert failure.classification == "retryable", failure
                assert "session sync" in failure.message, failure
            assert elapsed < self.TIMEOUT_S + 1.5
            # p2 never ran the session, so the first flights it was sent
            # stay queued there; the daemons that ran it released all.
            assert session_tags_left(fleet.daemons[:2], "unsynced") == []
        assert [span for span in read_trace_dir(tmp_path)
                if span["kind"] == "adopt"] == []

    def test_a_late_start_finds_the_first_flights_waiting(self):
        """p2 hears of the session 0.2 s after p0's and p1's first
        flights reached it: they wait in the views its hubs created on
        sight, and the session still finishes bit-identical to the
        in-process mesh."""
        by_party = workload(3)
        config = make_config()
        seeds = [31, 32, 33]
        manifest = build_manifest(by_party, config, seeds,
                                  session_id="late-start")
        flights = first_flight_tags(by_party, "late-start", "p2")
        with DaemonFleet(list(by_party)) as fleet:
            late = fleet.daemons[2]
            with fleet.client() as client:
                handle = submit_per_daemon(
                    client, {"p0": manifest, "p1": manifest}, by_party)
                wait_until(lambda: sorted(session_tags_left(
                    [late], "late-start")) == flights, timeout=10)
                time.sleep(0.2)
                assert sorted(session_tags_left([late], "late-start")) \
                    == flights
                send_start(client, manifest, by_party, "p2")
                run = handle.result(120)
            assert session_tags_left(fleet.daemons, "late-start") == []
        checks = verify_against_in_process(run, by_party, config, seeds)
        assert all(checks.values()), checks


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

    def test_a_refused_session_leaves_no_view_and_runs_again(self):
        """p2 refuses a session whose partition misses a point, after
        p0's and p1's first flights reached it: once every daemon has
        reported no hub holds a view of the session, and a resubmission
        of the same id completes."""
        by_party = workload(3)
        config = make_config()
        seeds = [31, 32, 33]
        manifest = build_manifest(by_party, config, seeds,
                                  session_id="refused")
        short = dict(by_party, p2=by_party["p2"][:1])
        with DaemonFleet(list(by_party), timeout_s=2.0) as fleet:
            refusing = fleet.daemons[2]
            with fleet.client() as client:
                handle = submit_per_daemon(
                    client, {"p0": manifest, "p1": manifest}, short)
                wait_until(lambda: all("refused" in hub._sessions
                                       for hub in refusing.hubs.values()),
                           timeout=10)
                time.sleep(0.1)
                send_start(client, manifest, short, "p2")
                failures = wait_for_failures(handle, list(by_party),
                                             timeout=30)
            assert "partition for 'p2' has 1 points" \
                in failures["p2"].message
            assert session_tags_left(fleet.daemons, "refused") == []
            with fleet.client() as client:
                run = run_via_daemons(by_party, config, seeds,
                                      client=client, session_id="refused",
                                      timeout=120)
        checks = verify_against_in_process(run, by_party, config, seeds)
        assert all(checks.values()), checks

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

    def test_settled_sessions_leave_the_client(self):
        """A handle leaves the client once every daemon has answered, so
        a long-lived client does not grow per session, and a finished
        session's id may be submitted again: the re-run is bit-identical
        to the first."""
        by_party = workload(2)
        seeds = [31, 32]
        config = make_config()
        manifests = [build_manifest(by_party, config, seeds,
                                    session_id=f"h{index}",
                                    ports=spec_ports(by_party))
                     for index in range(4)]
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                handles = [client.submit(manifest, by_party)
                           for manifest in manifests]
                first = [handle.result(120) for handle in handles][0]
                assert client._handles == {}
                again = client.run(manifests[0], by_party, timeout=120)
                assert client._handles == {}
        assert again.transcript_digests == first.transcript_digests
        assert again.result.labels_by_party == first.result.labels_by_party
        assert again.result.ledger.events == first.result.ledger.events
        assert again.result.comparisons == first.result.comparisons
        assert again.result.stats == first.result.stats


def _proc_stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name (state,
    parent pid, ...), or ``None`` once the process is gone."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rpartition(")")[2].split()


def _alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def _serve_children(parent: int) -> dict[int, list[str]]:
    """The live ``repro serve`` children of ``parent``: pid -> argv."""
    children = {}
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _proc_stat(int(entry.name))
        try:
            argv = (entry / "cmdline").read_bytes().decode().split("\0")
        except OSError:
            continue
        if fields and fields[0] != "Z" and int(fields[1]) == parent \
                and "serve" in argv:
            children[int(entry.name)] = argv
    return children


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
        assert proc.stdout.count("verify stats: bit-identical") == 2
        assert "MISMATCH" not in proc.stdout
        assert "warm_start=True" in proc.stdout

    def test_sigterm_stops_the_spawned_daemons(self):
        """``repro submit --spawn`` ended by SIGTERM unwinds through its
        fleet's stop: no ``repro serve`` child outlives it, and its
        spec directory is removed."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "submit", "--spawn",
             "--parties", "3", "--sessions", "40", "--points", "12"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        children: dict[int, list[str]] = {}
        try:
            wait_until(lambda: len(_serve_children(proc.pid)) == 3,
                       timeout=60)
            children = _serve_children(proc.pid)
            argv = next(iter(children.values()))
            spec_dir = pathlib.Path(argv[argv.index("--spec") + 1]).parent
            assert spec_dir.name.startswith("repro-mesh-")
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
            assert [pid for pid in children if _alive(pid)] == []
            assert not spec_dir.exists()
            assert proc.returncode == 128 + signal.SIGTERM, stderr
        finally:
            proc.kill()
            proc.wait()
            for pid in children:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            if children:
                shutil.rmtree(spec_dir, ignore_errors=True)


@pytest.mark.sockets
class TestDaemonScaleOut:
    def test_sixty_four_concurrent_sessions_with_flat_thread_count(self):
        """The PR-9 acceptance bar: 64 sessions in flight on one 3-party
        mesh, every one bit-identical to the single-session reference,
        with the process's thread count independent of session count
        (the pass model runs sessions as coroutines, not threads)."""
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
        assert all(info["pass_model"] == "async" for info in infos)
        # Thread flatness: reports are built at every stage of the
        # burst (1 in flight .. 64 in flight), so a per-session thread
        # would show up as a spread of dozens here.
        threads = [info["thread_count"] for info in infos]
        assert max(threads) - min(threads) <= 4, threads

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

    def test_wave_sessions_pass_the_verification_helper(self):
        """``verify_against_in_process`` checks each wave copy against a
        reference under the copy's own ``rng_namespace``, so every one
        of its five checks passes."""
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        manifest = build_manifest(by_party, config, seeds,
                                  session_id="verified",
                                  ports=spec_ports(by_party))
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                runs = [handle.result(240) for handle in
                        client.submit_wave(manifest, by_party, 2)]
        for run in runs:
            assert verify_against_in_process(
                run, by_party, config, seeds) == dict.fromkeys(
                ("labels", "ledger", "comparisons", "transcripts",
                 "stats"), True)


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

    def test_stop_with_a_client_connected_logs_no_traceback(self, caplog):
        """A drain keeps the requesting client's connection open; the
        daemon's teardown closes it, so its handler ends on
        end-of-stream instead of being cancelled by the loop's shutdown
        (which the server's done callback logs with a traceback)."""
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with DaemonFleet(list(workload(3))) as fleet:
                with fleet.client():
                    for daemon in fleet.daemons:
                        daemon.stop(drain=True)
                    for member in fleet._members:
                        member.thread.join(10)
                        assert not member.thread.is_alive()
        assert [record.getMessage() for record in caplog.records
                if record.name == "asyncio"] == []

    def test_hard_shutdown_still_tears_down(self):
        by_party = workload(2)
        with DaemonFleet(list(by_party)) as fleet:
            with fleet.client() as client:
                client.shutdown_mesh()
            for member in fleet._members:
                member.thread.join(10)
                assert not member.thread.is_alive()


@pytest.mark.sockets
class TestDaemonLinkUp:
    def test_link_up_survives_a_connection_closed_before_the_hello(self):
        """The higher-slot daemon's first dial lands on a listener that
        closes it unanswered; the daemon re-dials, links up with the
        real peer, and serves a session."""
        import socket

        from repro.runtime.client import SessionClient, _DaemonThread
        from repro.runtime.orchestrator import allocate_ports

        by_party = workload(2)
        seeds = [31, 32]
        config = make_config()
        names = tuple(by_party)
        spec = MeshSpec(names=names,
                        ports=dict(zip(names, allocate_ports(2))))
        impostor = socket.create_server(("127.0.0.1", spec.ports["p0"]))
        impostor.settimeout(15.0)
        dialer = _DaemonThread(spec, "p1")
        members = [dialer]
        try:
            dialer.start()
            first_dial, _ = impostor.accept()
            first_dial.close()
            impostor.close()
            members.append(_DaemonThread(spec, "p0"))
            members[-1].start()
            for member in members:
                member.wait_ready(20.0)
            with SessionClient(spec) as client:
                run = run_via_daemons(by_party, config, seeds,
                                      client=client, timeout=120)
        finally:
            impostor.close()
            for member in members:
                member.signal_stop()
            for member in members:
                member.wait(10.0)
        reference, digests = reference_run(by_party, config, seeds)
        assert_matches_reference(run, reference, digests)

    def test_link_up_survives_a_dial_reset_before_the_hello(
            self, monkeypatch):
        """The first dial lands on a listener that accepts it and resets
        it (RST) before the daemon's hello goes out, so the hello write
        itself dies with an OSError -- the dial's retry path, not the
        EOF one above.  The daemon re-dials, links up with the real
        peer, and serves a bit-identical session."""
        import asyncio
        import queue
        import socket
        import struct
        import threading

        from repro.runtime import daemon as daemon_module
        from repro.runtime.client import SessionClient, _DaemonThread
        from repro.runtime.orchestrator import allocate_ports

        by_party = workload(2)
        seeds = [31, 32]
        config = make_config()
        names = tuple(by_party)
        spec = MeshSpec(names=names,
                        ports=dict(zip(names, allocate_ports(2))))
        impostor = socket.create_server(("127.0.0.1", spec.ports["p0"]))
        impostor.settimeout(15.0)
        dialed: queue.Queue = queue.Queue()
        reset = threading.Event()
        first_send: list = []
        real_send = daemon_module._send_frame

        async def send_after_reset(writer, kind, payload,
                                   authenticator=None):
            # Only the timing is staged: the first hello to the
            # impostor waits until the impostor has reset that very
            # connection and this daemon's loop has seen the reset (a
            # loaded host may deliver a loopback RST late); then the
            # real send meets the reset socket.
            peer = writer.get_extra_info("peername")
            if first_send or peer[1] != spec.ports["p0"]:
                await real_send(writer, kind, payload, authenticator)
                return
            first_send.append(None)
            dialed.put(writer.get_extra_info("sockname"))
            await asyncio.get_running_loop().run_in_executor(
                None, reset.wait, 15.0)
            for _ in range(1000):
                if writer.transport.is_closing():
                    break
                await asyncio.sleep(0.01)
            try:
                await real_send(writer, kind, payload, authenticator)
            except OSError as exc:
                first_send[0] = exc
                raise

        monkeypatch.setattr(daemon_module, "_send_frame", send_after_reset)
        dialer = _DaemonThread(spec, "p1")
        members = [dialer]
        try:
            dialer.start()
            dialer_address = dialed.get(timeout=15.0)
            while True:  # reset every connection up to the dialer's
                connection, address = impostor.accept()
                connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                      struct.pack("ii", 1, 0))
                connection.close()
                if address == dialer_address:
                    break
            impostor.close()
            reset.set()
            members.append(_DaemonThread(spec, "p0"))
            members[-1].start()
            for member in members:
                member.wait_ready(20.0)
            with SessionClient(spec) as client:
                run = run_via_daemons(by_party, config, seeds,
                                      client=client, timeout=120)
        finally:
            reset.set()
            impostor.close()
            for member in members:
                member.signal_stop()
            for member in members:
                member.wait(10.0)
        assert isinstance(first_send[0], OSError), first_send
        reference, digests = reference_run(by_party, config, seeds)
        assert_matches_reference(run, reference, digests)


@pytest.mark.sockets
class TestProcessFleet:
    def test_daemons_import_repro_without_pythonpath(self, tmp_path):
        """A parent that found repro through ``sys.path`` alone still
        gets daemons that can import it."""
        import json
        import os
        import pathlib

        import repro

        by_party = workload(2)
        seeds = [31, 32]
        src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        script = f"""
import json, sys
sys.path.insert(0, {src_root!r})
from repro.core.config import ProtocolConfig
from repro.runtime.client import DaemonFleet, run_via_daemons
from repro.smc.session import SmcConfig

by_party = {{name: [tuple(p) for p in points]
            for name, points in json.loads({json.dumps(json.dumps(by_party))}).items()}}
config = ProtocolConfig(eps=1.0, min_pts=3, scale=10, smc=SmcConfig(
    paillier_bits=128, comparison="bitwise", key_seed=77, mask_sigma=8))
with DaemonFleet(list(by_party), mode="process") as fleet:
    with fleet.client() as client:
        run = run_via_daemons(by_party, config, {seeds!r}, client=client,
                              timeout=120)
print(json.dumps(run.result.labels_by_party))
"""
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=180)
        assert proc.returncode == 0, proc.stderr
        labels = json.loads(proc.stdout.strip().splitlines()[-1])
        reference, _ = reference_run(by_party, make_config(), seeds)
        assert {name: tuple(value) for name, value in labels.items()} \
            == reference.labels_by_party

    def test_mis_keyed_fleet_stops_promptly(self, monkeypatch):
        """One daemon under another PSK never links up.  Stopping the
        fleet must not wait out the link-up timeout: every member exits
        through its own shutdown (code 0) in under two seconds."""
        import socket
        import time

        from repro.runtime.handshake import HandshakePeerLost
        from tests.runtime.test_link_auth import skew_psk

        skew_psk(monkeypatch, "p1")
        fleet = DaemonFleet(["p0", "p1", "p2"], mode="process",
                            psk="the fleet's secret").start()
        members = list(fleet._members)
        try:
            with pytest.raises(HandshakePeerLost):
                fleet.client()
            # Every daemon is serving (its stop handlers installed).
            deadline = time.monotonic() + 20.0
            for port in fleet.spec.ports.values():
                while True:
                    try:
                        socket.create_connection(("127.0.0.1", port),
                                                 timeout=1.0).close()
                        break
                    except OSError:
                        assert time.monotonic() < deadline
                        time.sleep(0.05)
        finally:
            started = time.monotonic()
            fleet.stop()
            elapsed = time.monotonic() - started
        assert elapsed < 2.0
        assert [member.process.returncode for member in members] \
            == [0, 0, 0]
        assert not any(member.exited_on_its_own for member in members)
