"""Session client: routing of daemon records on the submission plane.

A fake daemon on a loopback socket answers the client hello by hand and
then writes whatever records a test needs, so the client's reader can
be fed input no real daemon produces.
"""

import json
import socket
import threading

import pytest

from repro.core.config import ProtocolConfig
from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_GOODBYE,
    FRAME_HELLO,
    ConnectionClosedError,
    FramedConnection,
    ReceiveTimeout,
)
from repro.net.serialization import deserialize_message, serialize_message
from repro.runtime.client import SessionClient, SessionClientError
from repro.runtime.daemon import (
    CONTROL_GET_METRICS,
    CONTROL_METRICS,
    CONTROL_SESSION_REPORT,
    CONTROL_START_SESSION,
    MeshSpec,
    mesh_digest,
)
from repro.runtime.handshake import PROTOCOL_VERSION, ROLE_DAEMON, Hello
from repro.runtime.manifest import RunManifest, pair_key
from repro.runtime.orchestrator import build_manifest
from repro.smc.session import SmcConfig


class FakeDaemon:
    """Accepts one client connection and answers it on a thread.

    ``on_start`` maps a ``start_session`` manifest to the control
    records to send back; every ``get_metrics`` request is answered
    with a valid, empty metrics snapshot.
    """

    def __init__(self, on_start=lambda manifest: []):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.on_start = on_start
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def start(self, spec: MeshSpec) -> None:
        self.digest = mesh_digest(spec)
        self.thread.start()

    def _serve(self) -> None:
        sock, _ = self.listener.accept()
        connection = FramedConnection(sock, timeout_s=0.2, name="fake")
        try:
            kind, payload = self._read(connection)
            theirs = Hello.from_wire(payload)
            connection.write_frame(FRAME_HELLO, Hello(
                version=PROTOCOL_VERSION, session_id="",
                pair_left=theirs.pair_left, pair_right=theirs.pair_right,
                party_id=theirs.pair_right, config_digest=self.digest,
                role=ROLE_DAEMON).to_wire())
            while True:
                kind, payload = self._read(connection)
                if kind == FRAME_GOODBYE:
                    return
                record = deserialize_message(payload)
                if record[0] == CONTROL_START_SESSION:
                    replies = self.on_start(RunManifest.from_json(record[1]))
                elif record[0] == CONTROL_GET_METRICS:
                    replies = [[CONTROL_METRICS, record[1], json.dumps({})]]
                else:
                    replies = []
                for reply in replies:
                    connection.write_frame(FRAME_CONTROL,
                                           serialize_message(reply))
        except ConnectionClosedError:
            return
        finally:
            connection.close()
            self.listener.close()

    @staticmethod
    def _read(connection: FramedConnection):
        while True:
            try:
                return connection.read_frame()
            except ReceiveTimeout:
                continue


def _manifest(spec: MeshSpec, points: dict[str, list]) -> RunManifest:
    config = ProtocolConfig(
        eps=1.0, min_pts=2, scale=10,
        smc=SmcConfig(paillier_bits=128, comparison="bitwise", key_seed=77))
    ports = {pair_key(*spec.names): 0}
    return build_manifest(points, config, [1, 2], session_id="s1",
                          ports=ports, host=spec.host)


@pytest.mark.sockets
class TestMalformedDaemonRecords:
    def test_bad_report_fails_its_session_and_reader_survives(self):
        """Records that do not parse, or whose session id is not a
        string, must not kill the reader thread of that daemon: the
        session fails naming the daemon, and later records from it are
        still routed."""
        def bad_records(manifest):
            return [[CONTROL_METRICS, ["unhashable"], json.dumps({})],
                    [CONTROL_SESSION_REPORT, ["unhashable"], "{}"],
                    [CONTROL_SESSION_REPORT, manifest.session_id,
                     "not json"]]

        fakes = {"p0": FakeDaemon(on_start=bad_records), "p1": FakeDaemon()}
        spec = MeshSpec(names=("p0", "p1"),
                        ports={name: fake.port
                               for name, fake in fakes.items()},
                        timeout_s=5.0, connect_timeout_s=5.0)
        for fake in fakes.values():
            fake.start(spec)
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
                fake.thread.join(timeout=5.0)
                assert not fake.thread.is_alive()
