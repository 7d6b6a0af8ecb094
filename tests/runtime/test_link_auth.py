"""Sealed keys and authenticated links: the PR-8 threat model, tested.

Two trust-boundary changes land together and both get their rejection
matrix here: per-frame HMAC link authentication (flipped MAC bytes,
truncated MACs, cross-session replay, PSK mismatch on dial and accept,
across the sync TCP path and the daemon's asyncio path) and sealed
per-party key material (a party process holds a usable private key for
its own slot ONLY; any code path touching a peer's private raises
``PublicOnlyKeyError``).  The equivalence bar stays bit-exact: the same
workload with auth on and auth off must reproduce the in-process mesh
on every protocol observable.
"""

import random
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ProtocolConfig
from repro.crypto.keycache import cached_paillier_keypair
from repro.crypto.sealed import (
    PublicOnlyKeyError,
    is_sealed,
    paillier_public_digest,
    seal_paillier_keypair,
    seal_rsa_keypair,
)
from repro.crypto.rsa import generate_rsa_keypair
from repro.data.generators import gaussian_blobs
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh
from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_HELLO,
    FRAME_MESSAGE,
    MAC_BYTES,
    FrameAuthenticationError,
    FrameAuthenticator,
    FramedConnection,
    FramingError,
    encode_frame,
)
from repro.net.transcript import transcript_digest
from repro.runtime.client import (
    DaemonFleet,
    SessionClient,
    SessionClientError,
    run_via_daemons,
)
from repro.runtime.daemon import DaemonError, MeshSpec, mesh_digest
from repro.runtime.failure import CAUSE_AUTH_FAILED, FATAL
from repro.runtime.handshake import (
    PROTOCOL_VERSION,
    ROLE_CLIENT,
    HandshakeError,
    Hello,
)
from repro.runtime.manifest import ManifestError, pair_key
from repro.runtime.orchestrator import (
    OrchestrationError,
    build_manifest,
    orchestrate_run,
)
from repro.runtime.party import PartyProcess, PartyRuntimeError, classify_exception
from repro.smc.session import SealedKeyProvider, SmcConfig, SmcSession

PSK = "tier1 shared secret"


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


def reference_run(by_party, config, seeds):
    mesh = PartyMesh(list(by_party), config.smc, seeds=seeds)
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


# -- the MAC itself ---------------------------------------------------------

class TestFrameAuthenticator:
    def test_seal_open_roundtrip(self):
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = auth.seal(FRAME_MESSAGE, b"payload")
        assert len(sealed) == len(b"payload") + MAC_BYTES
        assert auth.open(FRAME_MESSAGE, sealed) == b"payload"

    def test_flipped_mac_byte_rejected(self):
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = bytearray(auth.seal(FRAME_MESSAGE, b"payload"))
        sealed[-1] ^= 0x01
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_MESSAGE, bytes(sealed))

    def test_flipped_payload_byte_rejected(self):
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = bytearray(auth.seal(FRAME_MESSAGE, b"payload"))
        sealed[0] ^= 0x01
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_MESSAGE, bytes(sealed))

    def test_truncated_mac_rejected(self):
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = auth.seal(FRAME_MESSAGE, b"payload")
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_MESSAGE, sealed[:-1])
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_MESSAGE, sealed[:MAC_BYTES - 1])

    def test_kind_confusion_rejected(self):
        """The MAC binds the frame kind: a message frame replayed as a
        control frame must not verify."""
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = auth.seal(FRAME_MESSAGE, b"payload")
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_CONTROL, sealed)

    def test_cross_session_replay_rejected(self):
        """The MAC context is the session id (parties) or the mesh
        digest (daemons): a frame captured from another session under
        the *same* PSK fails verification."""
        sealed = FrameAuthenticator(PSK, "session-a").seal(
            FRAME_MESSAGE, b"payload")
        with pytest.raises(FrameAuthenticationError):
            FrameAuthenticator(PSK, "session-b").open(
                FRAME_MESSAGE, sealed)

    def test_wrong_psk_rejected(self):
        sealed = FrameAuthenticator(PSK, "session-a").seal(
            FRAME_MESSAGE, b"payload")
        with pytest.raises(FrameAuthenticationError):
            FrameAuthenticator("other secret", "session-a").open(
                FRAME_MESSAGE, sealed)

    def test_empty_psk_refused(self):
        with pytest.raises(FramingError, match="non-empty"):
            FrameAuthenticator("", "session-a")


# -- the sync TCP path ------------------------------------------------------

def connected_pair(left_auth=None, right_auth=None):
    left_sock, right_sock = socket.socketpair()
    return (FramedConnection(left_sock, timeout_s=2.0, name="left",
                             authenticator=left_auth),
            FramedConnection(right_sock, timeout_s=2.0, name="right",
                             authenticator=right_auth))


class TestAuthenticatedConnection:
    def test_roundtrip_with_matching_psk(self):
        auth = FrameAuthenticator(PSK, "s")
        left, right = connected_pair(auth, FrameAuthenticator(PSK, "s"))
        left.write_frame(FRAME_MESSAGE, b"hello")
        assert right.read_frame() == (FRAME_MESSAGE, b"hello")
        left.close()
        right.close()

    def test_psk_mismatch_rejected_on_read(self):
        left, right = connected_pair(FrameAuthenticator(PSK, "s"),
                                     FrameAuthenticator("wrong", "s"))
        left.write_frame(FRAME_MESSAGE, b"hello")
        with pytest.raises(FrameAuthenticationError):
            right.read_frame()
        left.close()
        right.close()

    def test_unauthenticated_peer_rejected(self):
        """A peer that doesn't seal at all (no PSK configured) must be
        refused by an authenticating endpoint."""
        left, right = connected_pair(None, FrameAuthenticator(PSK, "s"))
        left.write_frame(FRAME_MESSAGE, b"hello")
        with pytest.raises(FrameAuthenticationError):
            right.read_frame()
        left.close()
        right.close()

    def test_wire_tamper_rejected(self):
        """A bit flipped in transit (not by the sender) is caught."""
        auth = FrameAuthenticator(PSK, "s")
        left_sock, right_sock = socket.socketpair()
        right = FramedConnection(right_sock, timeout_s=2.0, name="right",
                                 authenticator=auth)
        frame = bytearray(encode_frame(
            FRAME_MESSAGE, auth.seal(FRAME_MESSAGE, b"payload")))
        frame[-5] ^= 0x40  # inside the sealed payload
        left_sock.sendall(bytes(frame))
        with pytest.raises(FrameAuthenticationError):
            right.read_frame()
        left_sock.close()
        right.close()


# -- classification: auth failures are fatal, never retried -----------------

class TestAuthFailureClassification:
    def test_classified_fatal(self):
        cause, classification = classify_exception(
            FrameAuthenticationError("MAC mismatch"))
        assert cause == CAUSE_AUTH_FAILED
        assert classification == FATAL

    def test_outranks_the_framing_retry_path(self):
        """FrameAuthenticationError subclasses FramingError; the
        classifier must see the subclass first, or wrong-PSK runs would
        burn the whole recovery budget re-failing identically."""
        cause, _ = classify_exception(FramingError("torn frame"))
        assert cause != CAUSE_AUTH_FAILED


# -- sealed key material ----------------------------------------------------

class TestSealedKeys:
    def test_provider_seals_every_peer_slot(self):
        config = SmcConfig(paillier_bits=128, comparison="bitwise",
                           key_seed=77)
        provider = SealedKeyProvider(config, "p1")
        names = ["p0", "p1", "p2"]
        contexts = {name: provider.context_for(name, slot)
                    for slot, name in enumerate(names)}
        assert not is_sealed(contexts["p1"].paillier.private_key)
        for peer in ("p0", "p2"):
            assert is_sealed(contexts[peer].paillier.private_key)

    def test_own_slot_matches_the_manifest_digest(self):
        """The one keypair a party derives is exactly the one the
        orchestrator pinned for its slot."""
        by_party = workload(3)
        config = make_config()
        manifest = build_manifest(by_party, config, [1, 2, 3])
        assert set(manifest.key_digests) == set(by_party)
        for slot, name in enumerate(manifest.names):
            keypair = cached_paillier_keypair(
                config.smc.paillier_bits,
                100 * config.smc.key_seed + slot)
            assert (paillier_public_digest(keypair.public_key)
                    == manifest.key_digests[name])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 64))
    def test_sealed_paillier_private_raises_on_any_decrypt(self, value):
        keypair = cached_paillier_keypair(128, 991)
        sealed = seal_paillier_keypair(keypair.public_key, "peer")
        assert is_sealed(sealed.private_key)
        with pytest.raises(PublicOnlyKeyError, match="peer"):
            sealed.private_key.decrypt(value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_batch_decrypt_refuses_a_sealed_key(self, workers):
        """No hosted step decrypts under a peer's key, so the engine
        has no placeholder path: serial and multi-worker-eligible
        engines both raise before building a single job."""
        from repro.crypto.engine import ModexpEngine

        keypair = cached_paillier_keypair(128, 993)
        sealed = seal_paillier_keypair(keypair.public_key, "peer")
        cipher = keypair.public_key.encrypt(5, random.Random(1)).value
        with ModexpEngine(workers=workers, min_parallel_jobs=1) as engine:
            with pytest.raises(PublicOnlyKeyError, match="peer"):
                engine.decrypt_raw_batch(sealed.private_key, [cipher] * 4)
            assert engine.report()["jobs"] == 0
            assert engine._executor is None

    def test_sealed_rsa_private_raises_on_sign_and_secret_access(self):
        keypair = generate_rsa_keypair(bits=512, rng=random.Random(7))
        sealed = seal_rsa_keypair(keypair.public_key, "peer")
        with pytest.raises(PublicOnlyKeyError):
            sealed.private_key.decrypt(12345)
        with pytest.raises(PublicOnlyKeyError):
            _ = sealed.private_key.d

    def test_wire_adoption_pins_the_manifest_digest(self):
        from repro.smc.session import (
            SessionError,
            sealed_peer_context,
        )

        keypair = cached_paillier_keypair(128, 992)
        good_digest = paillier_public_digest(keypair.public_key)
        announced = [keypair.public_key.n, keypair.public_key.g]

        context = sealed_peer_context("peer", expected_digest=good_digest)
        SmcSession._adopt_peer_public("peer", context, announced)
        assert context.paillier.public_key.n == keypair.public_key.n
        assert is_sealed(context.paillier.private_key)

        pinned = sealed_peer_context("peer", expected_digest="0" * 64)
        with pytest.raises(SessionError, match="pinned digest"):
            SmcSession._adopt_peer_public("peer", pinned, announced)

        with pytest.raises(SessionError, match="malformed"):
            SmcSession._adopt_peer_public(
                "peer", sealed_peer_context("peer"), [0, 0])

    def test_party_process_refuses_auth_manifest_without_psk(self):
        by_party = workload(2)
        manifest = build_manifest(by_party, make_config(), [1, 2],
                                  link_auth=True)
        with pytest.raises(PartyRuntimeError, match="REPRO_PSK"):
            PartyProcess(manifest, "p0", by_party["p0"])

    def test_manifest_key_digests_must_cover_the_parties(self):
        import dataclasses

        by_party = workload(2)
        manifest = build_manifest(by_party, make_config(), [1, 2])
        with pytest.raises(ManifestError, match="key_digests"):
            dataclasses.replace(manifest,
                                key_digests={"p0": "x", "stranger": "y"})


# -- orchestrated runs: auth on == auth off == in-process -------------------

@pytest.mark.sockets
class TestOrchestratedLinkAuth:
    def test_three_party_run_with_auth_on_is_bit_identical(self):
        by_party = workload(3)
        seeds = [21, 22, 23]
        config = make_config()
        reference, digests = reference_run(by_party, config, seeds)
        run = orchestrate_run(by_party, config, seeds=seeds, psk=PSK,
                              deadline_s=180.0)
        assert run.manifest.link_auth is True
        assert set(run.manifest.key_digests) == set(by_party)
        assert_matches_reference(run, reference, digests)
        assert run.result.stats == reference.stats

    def test_psk_mismatch_is_fatal_and_spends_no_retry_budget(self, monkeypatch):
        """One party holding a different PSK kills the run at the first
        hello MAC check -- classified ``auth-failed``/fatal, never
        re-spawned against the retry budget."""
        import repro.runtime.orchestrator as orchestrator_module

        real_spawn = orchestrator_module._spawn_party

        def skewed_spawn(run_dir, name, **kwargs):
            if name == "p1":
                kwargs["psk"] = "the wrong secret"
            return real_spawn(run_dir, name, **kwargs)

        monkeypatch.setattr(orchestrator_module, "_spawn_party",
                            skewed_spawn)
        by_party = workload(3)
        with pytest.raises(OrchestrationError,
                           match="fatal -- not retrying") as excinfo:
            orchestrate_run(by_party, make_config(), seeds=[21, 22, 23],
                            psk=PSK, deadline_s=60.0, retry_budget=3)
        assert any(failure.cause == CAUSE_AUTH_FAILED
                   for failure in excinfo.value.failures)


# -- the daemon's asyncio path ----------------------------------------------

@pytest.mark.sockets
class TestDaemonLinkAuth:
    def test_mesh_digest_binds_auth_and_cap(self):
        spec = MeshSpec(names=("a", "b"), ports={"a": 9001, "b": 9002})
        authed = MeshSpec(names=("a", "b"), ports={"a": 9001, "b": 9002},
                          link_auth=True)
        capped = MeshSpec(names=("a", "b"), ports={"a": 9001, "b": 9002},
                          max_sessions=2)
        digests = {mesh_digest(spec), mesh_digest(authed),
                   mesh_digest(capped)}
        assert len(digests) == 3
        clone = MeshSpec.from_json(authed.to_json())
        assert clone == authed
        with pytest.raises(DaemonError, match="max_sessions"):
            MeshSpec(names=("a", "b"), ports={"a": 1, "b": 2},
                     max_sessions=-1)

    def test_authenticated_fleet_is_bit_identical(self):
        by_party = workload(3)
        seeds = [31, 32, 33]
        config = make_config()
        reference, digests = reference_run(by_party, config, seeds)
        with DaemonFleet(list(by_party), psk=PSK) as fleet:
            assert fleet.spec.link_auth is True
            with fleet.client() as client:
                run = run_via_daemons(by_party, config, seeds,
                                      client=client, timeout=120)
        assert_matches_reference(run, reference, digests)

    def test_wrong_client_psk_is_refused(self):
        by_party = workload(2)
        with DaemonFleet(list(by_party), psk=PSK) as fleet:
            with pytest.raises((HandshakeError,
                                FrameAuthenticationError)):
                SessionClient(fleet.spec, psk="the wrong secret")

    def test_missing_client_psk_fails_at_construction(self):
        by_party = workload(2)
        with DaemonFleet(list(by_party), psk=PSK) as fleet:
            with pytest.raises(SessionClientError, match="PSK"):
                SessionClient(fleet.spec)

    def test_tampered_hello_is_dropped_by_the_daemon(self):
        """Raw async-path tamper: a hello whose MAC byte is flipped
        never reaches the handshake -- the daemon closes the connection
        without an answer and stays up."""
        by_party = workload(2)
        with DaemonFleet(list(by_party), psk=PSK) as fleet:
            spec = fleet.spec
            auth = FrameAuthenticator(PSK, mesh_digest(spec))
            hello = Hello(version=PROTOCOL_VERSION, session_id="",
                          pair_left="client", pair_right=spec.names[0],
                          party_id="client",
                          config_digest=mesh_digest(spec),
                          role=ROLE_CLIENT).authenticated(auth)
            sealed = bytearray(auth.seal(FRAME_HELLO, hello.to_wire()))
            sealed[-1] ^= 0x01
            with socket.create_connection(
                    (spec.host, spec.ports[spec.names[0]]),
                    timeout=5.0) as sock:
                sock.sendall(encode_frame(FRAME_HELLO, bytes(sealed)))
                sock.settimeout(10.0)
                assert sock.recv(1024) == b""  # dropped, no goodbye
            # The daemon still serves correctly-keyed clients.
            with fleet.client() as client:
                run = run_via_daemons(by_party, make_config(), [1, 2],
                                      client=client, timeout=120)
                assert set(run.reports) == set(by_party)

    def test_max_sessions_cap_rejects_excess_submissions(self):
        by_party = workload(2)
        seeds = [41, 42]
        config = make_config()
        with DaemonFleet(list(by_party), max_sessions=1,
                         net_delay_s=0.005) as fleet:
            with fleet.client() as client:
                manifests = [
                    build_manifest(by_party, config, seeds,
                                   session_id=f"cap-{index}",
                                   ports={pair_key("p0", "p1"): 0},
                                   host=fleet.spec.host)
                    for index in range(2)]
                first = client.submit(manifests[0], by_party)
                second = client.submit(manifests[1], by_party)
                with pytest.raises(SessionClientError,
                                   match="rejected.*max_sessions"):
                    second.result(timeout=60)
                run = first.result(timeout=120)
                assert set(run.reports) == set(by_party)
