"""Sealed keys and authenticated links: the PR-8 threat model, tested.

Two trust-boundary changes land together and both get their rejection
matrix here: per-frame HMAC link authentication (flipped MAC bytes,
truncated MACs, cross-mesh replay, PSK mismatch on dial and accept,
on the asyncio streams every endpoint reads and writes)
and sealed per-party key material (a party daemon holds a usable
private key for its own slot ONLY; any code path touching a peer's
private raises ``PublicOnlyKeyError``).  The equivalence bar stays bit-exact: the same
workload with auth on and auth off must reproduce the in-process mesh
on every protocol observable.
"""

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ProtocolConfig
from repro.crypto.keycache import cached_dgk_keypair, cached_paillier_keypair
from repro.crypto.sealed import (
    PublicOnlyKeyError,
    is_sealed,
    public_key_digest,
    seal_paillier_keypair,
)
from repro.data.generators import gaussian_blobs
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh
from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_HELLO,
    FRAME_MUX_CONTROL,
    FRAME_MUX_MESSAGE,
    MAC_BYTES,
    FrameAuthenticationError,
    FrameAuthenticator,
    FramingError,
    encode_frame,
    read_frame_async,
)
from repro.net.transcript import transcript_digest
from repro.runtime.client import (
    DaemonFleet,
    SessionClient,
    SessionClientError,
    run_via_daemons,
)
from repro.runtime.daemon import (
    DaemonError,
    MeshSpec,
    PartyDaemon,
    mesh_digest,
)
from repro.runtime.failure import CAUSE_AUTH_FAILED, FATAL, classify_exception
from repro.runtime.handshake import (
    PROTOCOL_VERSION,
    ROLE_CLIENT,
    HandshakePeerLost,
    Hello,
)
from repro.runtime.manifest import ManifestError, pair_key
from repro.runtime.orchestrator import (
    OrchestrationError,
    build_manifest,
    orchestrate_run,
)
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


def skew_psk(monkeypatch, party: str) -> None:
    """Make every process fleet start ``party``'s daemon under a PSK
    the rest of the fleet does not share."""
    import repro.runtime.client as client_module

    real_init = client_module._DaemonProcess.__init__

    def skewed_init(self, spec_path, name, psk=None, **kwargs):
        if name == party:
            psk = "the wrong secret"
        real_init(self, spec_path, name, psk, **kwargs)

    monkeypatch.setattr(client_module._DaemonProcess, "__init__",
                        skewed_init)


def assert_matches_reference(run, reference, digests) -> None:
    assert run.result.labels_by_party == reference.labels_by_party
    assert run.result.ledger.events == reference.ledger.events
    assert run.result.comparisons == reference.comparisons
    assert run.transcript_digests == digests


# -- the MAC itself ---------------------------------------------------------

class TestFrameAuthenticator:
    def test_seal_open_roundtrip(self):
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = auth.seal(FRAME_CONTROL, b"payload")
        assert len(sealed) == len(b"payload") + MAC_BYTES
        assert auth.open(FRAME_CONTROL, sealed) == b"payload"

    def test_flipped_mac_byte_rejected(self):
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = bytearray(auth.seal(FRAME_CONTROL, b"payload"))
        sealed[-1] ^= 0x01
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_CONTROL, bytes(sealed))

    def test_flipped_payload_byte_rejected(self):
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = bytearray(auth.seal(FRAME_CONTROL, b"payload"))
        sealed[0] ^= 0x01
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_CONTROL, bytes(sealed))

    def test_truncated_mac_rejected(self):
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = auth.seal(FRAME_CONTROL, b"payload")
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_CONTROL, sealed[:-1])
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_CONTROL, sealed[:MAC_BYTES - 1])

    def test_kind_confusion_rejected(self):
        """The MAC binds the frame kind: a message frame replayed as a
        control frame must not verify."""
        auth = FrameAuthenticator(PSK, "session-a")
        sealed = auth.seal(FRAME_MUX_MESSAGE, b"payload")
        with pytest.raises(FrameAuthenticationError):
            auth.open(FRAME_MUX_CONTROL, sealed)

    def test_cross_session_replay_rejected(self):
        """The MAC context is the mesh digest: a frame captured on
        another mesh under the *same* PSK fails verification."""
        sealed = FrameAuthenticator(PSK, "session-a").seal(
            FRAME_CONTROL, b"payload")
        with pytest.raises(FrameAuthenticationError):
            FrameAuthenticator(PSK, "session-b").open(
                FRAME_CONTROL, sealed)

    def test_wrong_psk_rejected(self):
        sealed = FrameAuthenticator(PSK, "session-a").seal(
            FRAME_CONTROL, b"payload")
        with pytest.raises(FrameAuthenticationError):
            FrameAuthenticator("other secret", "session-a").open(
                FRAME_CONTROL, sealed)

    def test_empty_psk_refused(self):
        with pytest.raises(FramingError, match="non-empty"):
            FrameAuthenticator("", "session-a")


# -- a sealed frame over an asyncio stream ----------------------------------

def through_the_wire(payload: bytes, sender_auth, receiver_auth,
                     tamper=lambda frame: frame):
    """One control frame sealed with ``sender_auth`` (if any), changed
    in transit by ``tamper``, and read back with ``receiver_auth``."""
    if sender_auth is not None:
        payload = sender_auth.seal(FRAME_CONTROL, payload)

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(tamper(encode_frame(FRAME_CONTROL, payload)))
        reader.feed_eof()
        return await read_frame_async(reader, name="right",
                                      authenticator=receiver_auth)
    return asyncio.run(run())


class TestAuthenticatedFrames:
    def test_roundtrip_with_matching_psk(self):
        assert through_the_wire(b"hello", FrameAuthenticator(PSK, "s"),
                                FrameAuthenticator(PSK, "s")) \
            == (FRAME_CONTROL, b"hello")

    def test_psk_mismatch_rejected_on_read(self):
        with pytest.raises(FrameAuthenticationError):
            through_the_wire(b"hello", FrameAuthenticator(PSK, "s"),
                             FrameAuthenticator("wrong", "s"))

    def test_unauthenticated_peer_rejected(self):
        """A peer that doesn't seal at all (no PSK configured) must be
        refused by an authenticating endpoint."""
        with pytest.raises(FrameAuthenticationError):
            through_the_wire(b"hello", None, FrameAuthenticator(PSK, "s"))

    def test_wire_tamper_rejected(self):
        """A bit flipped in transit (not by the sender) is caught."""
        def flip(frame: bytes) -> bytes:
            flipped = bytearray(frame)
            flipped[-5] ^= 0x40  # inside the sealed payload
            return bytes(flipped)

        auth = FrameAuthenticator(PSK, "s")
        with pytest.raises(FrameAuthenticationError):
            through_the_wire(b"payload", auth, auth, tamper=flip)


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
            seed = 100 * config.smc.key_seed + slot
            paillier = cached_paillier_keypair(config.smc.paillier_bits, seed)
            dgk = cached_dgk_keypair(config.smc.paillier_bits, seed)
            assert (public_key_digest(paillier.public_key, dgk.public_key)
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

    def test_wire_adoption_pins_the_manifest_digest(self):
        from repro.smc.session import (
            SessionError,
            sealed_peer_context,
        )

        keypair = cached_paillier_keypair(128, 992)
        dgk = cached_dgk_keypair(128, 992).public_key
        good_digest = public_key_digest(keypair.public_key, dgk)
        announced = [keypair.public_key.n, keypair.public_key.g,
                     dgk.n, dgk.g, dgk.h]

        context = sealed_peer_context("peer", expected_digest=good_digest,
                                      with_dgk=True)
        SmcSession._adopt_peer_public("peer", context, announced, 128)
        assert context.paillier.public_key.n == keypair.public_key.n
        assert context.dgk.public_key == dgk
        assert is_sealed(context.paillier.private_key)
        assert is_sealed(context.dgk.private_key)

        pinned = sealed_peer_context("peer", expected_digest="0" * 64,
                                     with_dgk=True)
        with pytest.raises(SessionError, match="pinned digest"):
            SmcSession._adopt_peer_public("peer", pinned, announced, 128)

        with pytest.raises(SessionError, match="malformed"):
            SmcSession._adopt_peer_public(
                "peer", sealed_peer_context("peer"), [0, 0], 128)

    def test_daemon_refuses_auth_spec_without_psk(self):
        spec = MeshSpec(names=("p0", "p1"), ports={"p0": 1, "p1": 2},
                        link_auth=True)
        with pytest.raises(DaemonError, match="REPRO_PSK"):
            PartyDaemon(spec, "p0")

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

    def test_psk_mismatch_is_fatal_and_spends_no_retry_budget(
            self, monkeypatch):
        """One daemon holding a different PSK drops the orchestrator's
        client hello without a reply -- classified ``auth-failed``/fatal
        after one attempt, never re-run against the retry budget."""
        import time

        skew_psk(monkeypatch, "p1")
        by_party = workload(3)
        started = time.monotonic()
        with pytest.raises(OrchestrationError,
                           match="fatal -- not retrying") as excinfo:
            orchestrate_run(by_party, make_config(), seeds=[21, 22, 23],
                            psk=PSK, deadline_s=60.0, retry_budget=3)
        assert time.monotonic() - started < 10.0
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert (failures[0].party, failures[0].cause,
                failures[0].classification) == ("p1", CAUSE_AUTH_FAILED,
                                                 FATAL)


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
        """The daemon drops a hello whose MAC fails without a reply --
        no oracle -- so the client sees the daemon vanish."""
        by_party = workload(2)
        with DaemonFleet(list(by_party), psk=PSK) as fleet:
            with pytest.raises(HandshakePeerLost) as excinfo:
                SessionClient(fleet.spec, psk="the wrong secret")
        assert excinfo.value.peer == fleet.spec.names[0]

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

            async def send_the_hello() -> bytes:
                reader, writer = await asyncio.open_connection(
                    spec.host, spec.ports[spec.names[0]])
                try:
                    writer.write(encode_frame(FRAME_HELLO, bytes(sealed)))
                    async with asyncio.timeout(10.0):
                        return await reader.read()  # to the end of stream
                finally:
                    writer.close()

            assert asyncio.run(send_the_hello()) == b""  # no goodbye
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
