"""Handshake: matched hellos accept, every mismatch refuses with the field."""

import asyncio
import dataclasses
import socket

import pytest

from repro.net.framing import FrameAuthenticator
from repro.runtime.client import DaemonFleet, SessionClient
from repro.runtime.handshake import (
    PROTOCOL_VERSION,
    ROLE_CLIENT,
    HandshakeError,
    HandshakePeerLost,
    Hello,
    hello_mismatch,
    perform_client_handshake,
)


def hello(**overrides) -> Hello:
    fields = dict(version=PROTOCOL_VERSION, session_id="run-1",
                  pair_left="p0", pair_right="p1", party_id="p0",
                  config_digest="d" * 64)
    fields.update(overrides)
    return Hello(**fields)


def mismatches(mine: Hello, theirs: Hello):
    """Both daemons' verdicts on one link: ``mine`` expects p1 on the
    far end, ``theirs`` expects p0."""
    return (hello_mismatch(mine, theirs, expected_peer="p1"),
            hello_mismatch(theirs, mine, expected_peer="p0"))


class TestHandshake:
    def test_matched_hellos_accept_both_ends(self):
        assert mismatches(hello(party_id="p0"),
                          hello(party_id="p1")) == (None, None)

    @pytest.mark.parametrize("field,value,expected", [
        pytest.param("version", PROTOCOL_VERSION + 1, "protocol version",
                     id="version"),
        ("session_id", "run-2", "session id"),
        ("pair_left", "p9", "pair"),
        ("config_digest", "e" * 64, "config digest"),
    ])
    def test_mismatch_refused_with_field_name(self, field, value, expected):
        verdicts = mismatches(hello(party_id="p0"),
                              hello(party_id="p1", **{field: value}))
        assert all(verdict is not None for verdict in verdicts), \
            f"a {field} mismatch must refuse the link on both ends"
        assert {verdict[0] for verdict in verdicts} == {expected}

    def test_wrong_party_on_the_far_end_refused(self):
        verdict = hello_mismatch(hello(party_id="p0"), hello(party_id="p7"),
                                 expected_peer="p1")
        assert verdict == ("party", "p1", "p7")

    def test_role_and_auth_tag_are_bound(self):
        assert hello_mismatch(hello(), hello(role=ROLE_CLIENT),
                              expected_peer="p0")[0] == "role"
        auth = FrameAuthenticator("psk", "mesh")
        theirs = hello(party_id="p1").authenticated(auth)
        assert hello_mismatch(hello(), theirs, "p1", auth) is None
        forged = dataclasses.replace(theirs, auth_tag="00" * 32)
        assert hello_mismatch(hello(), forged, "p1", auth)[0] == "auth tag"

    @pytest.mark.sockets
    def test_refusal_reason_reaches_the_refused_peer(self):
        """The refusing daemon sends a goodbye naming the mismatch, so
        a client holding another spec logs the same diagnosis instead
        of a bare EOF.  Unauthenticated on purpose: on an
        authenticated mesh the spec digest is also the MAC context, so
        a stale client fails the MAC and gets no answer at all."""
        with DaemonFleet(["p0", "p1"], psk=None) as fleet:
            stale = dataclasses.replace(fleet.spec, net_delay_s=0.5)
            with pytest.raises(HandshakeError,
                               match="config digest") as excinfo:
                SessionClient(stale)
        assert not isinstance(excinfo.value, HandshakePeerLost)
        assert excinfo.value.peer == "p0"

    @pytest.mark.parametrize("daemon_end", ["closed", "silent"])
    def test_a_daemon_that_answers_nothing_is_lost(self, daemon_end):
        """A daemon end that closed, or that stays silent past the
        handshake timeout, raises HandshakePeerLost naming the daemon."""
        async def handshake():
            left_sock, right_sock = socket.socketpair()
            if daemon_end == "closed":
                right_sock.close()
            reader, writer = await asyncio.open_connection(sock=left_sock)
            try:
                await perform_client_handshake(
                    reader, writer, name="left", client_id="c",
                    daemon_id="p1", config_digest="d" * 64, timeout_s=0.2)
            finally:
                writer.close()
                right_sock.close()

        match = "vanished" if daemon_end == "closed" else "no hello"
        with pytest.raises(HandshakePeerLost, match=match) as excinfo:
            asyncio.run(handshake())
        assert excinfo.value.peer == "p1"

    def test_malformed_hello_record(self):
        with pytest.raises(HandshakeError, match="malformed"):
            Hello.from_wire(b"N")  # serialized None: wrong shape

    def test_hello_roundtrip(self):
        record = hello()
        assert Hello.from_wire(record.to_wire()) == record
