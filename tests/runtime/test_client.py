"""Session client: its event loop, and routing of daemon records.

A fake daemon on a loopback socket answers the client hello by hand on
asyncio streams and then writes whatever records a test needs, so the
client's reader can be fed input no real daemon produces.
"""

import asyncio
import json
import socket
import sys
import threading
import time

import pytest

from repro.core.config import ProtocolConfig
from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_GOODBYE,
    FRAME_HELLO,
    ConnectionClosedError,
    read_frame_async,
)
from repro.net.serialization import deserialize_message, serialize_message
from repro.runtime.client import (
    SessionClient,
    SessionClientError,
    _MetricsWaiter,
)
from repro.runtime.daemon import (
    CONTROL_GET_METRICS,
    CONTROL_METRICS,
    CONTROL_SESSION_REPORT,
    CONTROL_SHUTDOWN,
    CONTROL_START_SESSION,
    MeshSpec,
    mesh_digest,
)
from repro.runtime.handshake import (
    PROTOCOL_VERSION,
    ROLE_DAEMON,
    HandshakeError,
    HandshakePeerLost,
    Hello,
    _send_frame,
)
from repro.runtime.manifest import RunManifest, pair_key
from repro.runtime.orchestrator import build_manifest
from repro.smc.session import SmcConfig


class FakeDaemon:
    """Accepts one client connection and answers it on its own thread
    and event loop.

    ``on_start`` maps a ``start_session`` manifest to the control
    records to send back; every ``get_metrics`` request is answered
    with a valid, empty metrics snapshot, and a ``shutdown`` closes the
    connection, as a daemon does.  Every frame the client sends after
    the hello is parsed: ``records`` holds the control records,
    ``goodbye`` the goodbye's text.  ``party`` overrides the party id
    the fake's hello claims; ``drop_hello`` closes the connection on
    the client hello without an answer, as a daemon does when its MAC
    fails.
    """

    def __init__(self, on_start=lambda manifest: [], *,
                 party: str | None = None, drop_hello: bool = False):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.on_start = on_start
        self.party = party
        self.drop_hello = drop_hello
        self.records: list = []
        self.goodbye: str | None = None
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()), daemon=True)

    def start(self, spec: MeshSpec) -> None:
        self.digest = mesh_digest(spec)
        self.thread.start()

    def join(self) -> None:
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()

    async def _serve(self) -> None:
        sock, _ = self.listener.accept()  # this loop's only task
        self.listener.close()
        reader, writer = await asyncio.open_connection(sock=sock)
        try:
            _, payload = await read_frame_async(reader)
            if self.drop_hello:
                return
            theirs = Hello.from_wire(payload)
            await _send_frame(writer, FRAME_HELLO, Hello(
                version=PROTOCOL_VERSION, session_id="",
                pair_left=theirs.pair_left, pair_right=theirs.pair_right,
                party_id=self.party or theirs.pair_right,
                config_digest=self.digest, role=ROLE_DAEMON).to_wire())
            while True:
                kind, payload = await read_frame_async(reader)
                if kind == FRAME_GOODBYE:
                    self.goodbye = payload.decode()
                    return
                record = deserialize_message(payload)
                self.records.append(record)
                if record[0] == CONTROL_SHUTDOWN:
                    return
                if record[0] == CONTROL_START_SESSION:
                    replies = self.on_start(RunManifest.from_json(record[1]))
                elif record[0] == CONTROL_GET_METRICS:
                    replies = [[CONTROL_METRICS, record[1], json.dumps({})]]
                else:
                    replies = []
                for reply in replies:
                    await _send_frame(writer, FRAME_CONTROL,
                                      serialize_message(reply))
        except ConnectionClosedError:
            return
        finally:
            writer.close()


def _manifest(spec: MeshSpec, points: dict[str, list],
              session_id: str = "s1") -> RunManifest:
    config = ProtocolConfig(
        eps=1.0, min_pts=2, scale=10,
        smc=SmcConfig(paillier_bits=128, comparison="bitwise", key_seed=77))
    ports = {pair_key(*spec.names): 0}
    return build_manifest(points, config, [1, 2], session_id=session_id,
                          ports=ports, host=spec.host)


def _fake_mesh(fakes: dict[str, FakeDaemon]) -> MeshSpec:
    spec = MeshSpec(names=tuple(fakes),
                    ports={name: fake.port for name, fake in fakes.items()},
                    timeout_s=5.0, connect_timeout_s=5.0)
    for fake in fakes.values():
        fake.start(spec)
    return spec


def _client_threads(client_id: str) -> list[threading.Thread]:
    return [thread for thread in threading.enumerate()
            if thread.name == f"client-{client_id}"]


@pytest.mark.sockets
class TestMalformedDaemonRecords:
    def test_bad_report_fails_its_session_and_reader_survives(self):
        """Records that do not parse, or whose session id is not a
        string, must not kill the reader of that daemon: the session
        fails naming the daemon, and later records from it are still
        routed."""
        def bad_records(manifest):
            return [[CONTROL_METRICS, ["unhashable"], json.dumps({})],
                    [CONTROL_SESSION_REPORT, ["unhashable"], "{}"],
                    [CONTROL_SESSION_REPORT, manifest.session_id,
                     "not json"]]

        fakes = {"p0": FakeDaemon(on_start=bad_records), "p1": FakeDaemon()}
        spec = _fake_mesh(fakes)
        points = {"p0": [(0, 0)], "p1": [(1, 0)]}
        client = SessionClient(spec)
        try:
            handle = client.submit(_manifest(spec, points), points)
            with pytest.raises(SessionClientError) as excinfo:
                handle.result(timeout=5.0)
            message = str(excinfo.value)
            assert "malformed session report from daemon 'p0'" in message
            assert client.get_metrics(timeout=5.0) == {"p0": {}, "p1": {}}
        finally:
            client.close()
            for fake in fakes.values():
                fake.join()


@pytest.mark.sockets
class TestOneLoop:
    def test_threads_submitting_at_once_never_interleave_frames(self):
        """Eight threads submit at once, with a shortened switch
        interval: every frame reaches each daemon whole -- each one
        parses into the start record of a distinct session, with its
        partition intact."""
        fakes = {"p0": FakeDaemon(), "p1": FakeDaemon()}
        spec = _fake_mesh(fakes)
        # Start records of about 230 kB each.
        points = {"p0": [(index, 0) for index in range(20000)],
                  "p1": [(0, index) for index in range(20000)]}
        manifests = [_manifest(spec, {"p0": [(0, 0)], "p1": [(1, 0)]},
                               session_id=f"s{thread}-{index}")
                     for thread in range(8) for index in range(4)]
        client = SessionClient(spec)
        errors = []

        def submit(mine):
            try:
                for manifest in mine:
                    client.submit(manifest, points)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit,
                                        args=(manifests[index::8],))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            client.close()
            for fake in fakes.values():
                fake.join()
        assert errors == []
        for name, fake in fakes.items():
            assert fake.goodbye == "client done"
            assert sorted(RunManifest.from_json(record[1]).session_id
                          for record in fake.records) \
                == sorted(manifest.session_id for manifest in manifests)
            for record in fake.records:
                assert record[0] == CONTROL_START_SESSION
                assert json.loads(record[2]) \
                    == [list(point) for point in points[name]]

    def test_close_leaves_no_client_thread_and_no_open_socket(self):
        fakes = {"p0": FakeDaemon(), "p1": FakeDaemon()}
        spec = _fake_mesh(fakes)
        client = SessionClient(spec, client_id="closing")
        assert len(_client_threads("closing")) == 1
        sockets = [writer.get_extra_info("socket")
                   for writer in client._writers.values()]
        assert all(sock.fileno() != -1 for sock in sockets)
        client.close()
        client.close()  # idempotent
        for fake in fakes.values():
            fake.join()
            assert fake.goodbye == "client done"
        assert _client_threads("closing") == []
        assert all(sock.fileno() == -1 for sock in sockets)
        with pytest.raises(SessionClientError, match="closed"):
            client.get_metrics()

    def test_close_ends_a_call_another_thread_waits_on(self, monkeypatch):
        """A thread waiting on the loop when the client closes gets a
        typed error at once, not a hang on a stopped loop."""
        monkeypatch.setattr(_MetricsWaiter, "offer",
                            lambda self, party, snapshot: None)
        fakes = {"p0": FakeDaemon(), "p1": FakeDaemon()}
        client = SessionClient(_fake_mesh(fakes))
        errors = []

        def wait_for_metrics():
            try:
                client.get_metrics(timeout=60.0)
            except SessionClientError as exc:
                errors.append(exc)

        waiter = threading.Thread(target=wait_for_metrics)
        waiter.start()
        while not client._metrics_waiters:
            time.sleep(0.01)
        client.close()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert [str(exc) for exc in errors] == ["client is closed"]
        for fake in fakes.values():
            fake.join()

    def test_a_submit_after_the_daemons_closed_fails_as_connection_lost(
            self):
        """Daemons that closed their client connections fail a later
        submit as a lost connection, not as a session that never
        reports."""
        fakes = {"p0": FakeDaemon(), "p1": FakeDaemon()}
        spec = _fake_mesh(fakes)
        points = {"p0": [(0, 0)], "p1": [(1, 0)]}
        client = SessionClient(spec)
        try:
            client.shutdown_mesh()
            for fake in fakes.values():
                fake.join()  # each closed its end, as a daemon does
            handle = client.submit(_manifest(spec, points), points)
            with pytest.raises(SessionClientError) as excinfo:
                handle.result(timeout=5.0)
        finally:
            client.close()
        assert {failure.cause for failure in excinfo.value.failures} \
            == {"connection-lost"}


@pytest.mark.sockets
class TestHandshakeFailureCleanup:
    def test_a_dropped_hello_raises_peer_lost_and_closes_its_socket(
            self, monkeypatch):
        """A daemon that drops the client hello unanswered (what it does
        on a failed MAC) fails the client construction with
        HandshakePeerLost -- and the client closes that connection
        too, not only the ones it had already registered, and stops its
        loop thread."""
        fake = FakeDaemon(drop_hello=True)
        spec = MeshSpec(names=("p0", "p1"),
                        ports={"p0": fake.port, "p1": fake.port},
                        timeout_s=5.0, connect_timeout_s=5.0)
        fake.start(spec)
        opened = []
        real_connect = SessionClient._connect

        async def recording_connect(self, name):
            reader, writer = await real_connect(self, name)
            opened.append(writer.get_extra_info("socket"))
            return reader, writer

        monkeypatch.setattr(SessionClient, "_connect", recording_connect)
        with pytest.raises(HandshakePeerLost) as excinfo:
            SessionClient(spec, client_id="dropped")
        fake.join()
        assert excinfo.value.peer == "p0"
        assert len(opened) == 1
        assert opened[0].fileno() == -1
        assert _client_threads("dropped") == []

    def test_a_daemon_answering_for_another_party_is_refused(self):
        """The client checks the daemon's answer against its own hello
        in the daemon's role and name: a wrong party refuses the link
        with a goodbye naming the mismatch."""
        fake = FakeDaemon(party="p9")
        spec = MeshSpec(names=("p0", "p1"),
                        ports={"p0": fake.port, "p1": fake.port},
                        timeout_s=5.0, connect_timeout_s=5.0)
        fake.start(spec)
        with pytest.raises(HandshakeError, match="party mismatch") \
                as excinfo:
            SessionClient(spec)
        fake.join()
        assert not isinstance(excinfo.value, HandshakePeerLost)
        assert (excinfo.value.field_name, excinfo.value.ours,
                excinfo.value.theirs, excinfo.value.peer) \
            == ("party", "p0", "p9", "p0")
        assert fake.goodbye.startswith("handshake refused: party mismatch")
