"""The party program: one data holder as one networked OS process.

A party process owns exactly one partition of the data (loaded from its
own partition file; no shared memory with anyone), the public
:class:`~repro.runtime.manifest.RunManifest`, and one TCP link per mesh
pair it belongs to.  Its fault-tolerant life cycle:

1. **Link-up** -- create listening sockets for the pairs where it holds
   the lower mesh slot, dial (with manifest-configured retry/backoff)
   the pairs where it holds the higher slot, and run the versioned,
   epoch-tagged handshake on every link; any mismatch on a binding
   field refuses the link before protocol traffic.
2. **Resume negotiation** -- every hello carries the sender's
   completed-pass count; the mesh resumes at the *minimum* across all
   parties (full mesh: every party hears every other directly), so a
   party whose checkpoint ran ahead of a crashed peer rewinds to the
   shared boundary.
3. **Replay** -- when the negotiated resume pass is > 0, the party
   rebuilds all protocol state (sessions, RNG streams, labels, ledger,
   transcripts, stats) by re-executing the completed passes over a
   :class:`~repro.runtime.checkpoint.ReplayTransport` fed from its
   checkpointed wire view -- nothing touches the network, recomputed
   outbound frames are verified byte-for-byte, and any divergence is a
   fatal classified failure.
4. **Passes** -- the drivers take turns in manifest order, exactly like
   the in-process mesh.  After *every* completed pass the party writes
   an atomic checkpoint into the run directory, so a kill at any point
   loses at most the in-flight pass.
5. **Recovery** -- on any retryable failure (peer death, connection
   loss, timeout) the party closes every link with a ``recovering``
   goodbye (propagating the recovery wave to the whole mesh), bumps its
   epoch, and re-enters link-up, waiting for the dead peer's re-spawn.
   The cycle count is bounded by the manifest's ``recovery_budget``;
   fatal failures (desync, digest divergence, refused handshakes) stop
   immediately.  Either way a structured ``failure_<name>.json`` is
   written for the orchestrator (see :mod:`repro.runtime.failure`).
6. **Report** -- labels, the disclosure ledger, per-pair stats
   snapshots, transcript digests, and comparison counts are written as
   JSON for the orchestrator to merge.

Determinism contract: with the manifest's seeds, every observable -- the
wire bytes of every frame, both ends' transcripts, the ledger sequence,
the labels -- is bit-identical to
:func:`repro.multiparty.horizontal.run_multiparty_horizontal_dbscan`
over the same data on an in-process fabric, *including* runs that
crashed and recovered mid-way (property-tested in ``tests/runtime``).
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import time
from dataclasses import dataclass, field

from repro.core.distance import PeerCipherCache
from repro.core.leakage import Disclosure, LeakageEvent, LeakageLedger
from repro.core.horizontal import secure_peer_neighbor_count
from repro.multiparty.horizontal import _driver_pass
from repro.multiparty.mesh import derive_pair_rng
from repro.multiparty.scheduler import PassExecutor
from repro.net.framing import (
    FRAME_CONTROL,
    FRAME_GOODBYE,
    ConnectionClosedError,
    FrameAuthenticationError,
    FrameAuthenticator,
    FramedConnection,
    FramingError,
    ReceiveTimeout,
)
from repro.net.party import Party
from repro.net.serialization import SerializationError, deserialize_message, \
    serialize_message
from repro.net.transcript import transcript_digest
from repro.net.transport import (
    ProtocolDesyncError,
    TcpTransport,
    TransportClosedError,
    TransportTimeoutError,
)
from repro.runtime.backoff import backoff_delay, jitter_rng
from repro.runtime.checkpoint import (
    CheckpointDivergenceError,
    CheckpointError,
    PartyCheckpoint,
    PassRecord,
    ReplayTransport,
    load_checkpoint,
    write_checkpoint,
)
from repro.runtime.failure import (
    CAUSE_AUTH_FAILED,
    CAUSE_BUDGET_EXHAUSTED,
    CAUSE_CHECKPOINT_INVALID,
    CAUSE_CONNECTION_LOST,
    CAUSE_DESYNC,
    CAUSE_DIGEST_DIVERGENCE,
    CAUSE_HANDSHAKE_REFUSED,
    CAUSE_INTERNAL,
    CAUSE_TIMEOUT,
    FATAL,
    RETRYABLE,
    FailureReport,
    write_failure,
)
from repro.runtime.faults import (
    FaultPlan,
    FaultyConnection,
    PartyFaults,
    refuse_first_accept,
)
from repro.runtime.handshake import (
    PROTOCOL_VERSION,
    HandshakeError,
    HandshakePeerLost,
    Hello,
    perform_handshake,
)
from repro.runtime.manifest import RunManifest, manifest_digest, pair_key
from repro.obs.trace import NULL_SPAN, tracer_for
from repro.runtime.mirror import MirrorChannel, MirrorChannelError
from repro.smc.session import SealedKeyProvider, SmcSession


class PartyRuntimeError(RuntimeError):
    """Link-up or pass-sequencing failure in a party process."""


class PeerLostError(PartyRuntimeError):
    """A peer died, dropped the link, or announced recovery: retryable."""

    def __init__(self, message: str, *, peer: str | None = None,
                 frame: str | None = None):
        super().__init__(message)
        self.peer = peer
        self.frame = frame


class LinkupTimeoutError(PartyRuntimeError):
    """A link could not be (re-)established within the manifest budget.

    Retryable: during recovery the missing peer may still be waiting on
    its re-spawn; the next cycle (bounded by ``recovery_budget``) waits
    again.
    """


class _EpochOutdated(Exception):
    """A peer's hello carried a higher recovery epoch than ours.

    The mesh has recovered past us (connection-drop recoveries bump
    survivor epochs without any orchestrator involved); adopt the
    higher epoch and re-enter link-up.  Not a failure -- adoption does
    not consume recovery budget, and it terminates because epochs only
    ever rise through budget-bounded recoveries.
    """

    def __init__(self, epoch: int):
        super().__init__(f"mesh is at epoch {epoch}")
        self.epoch = epoch


CONTROL_QUERY = "query"
CONTROL_END_PASS = "end_pass"

_BIND_ATTEMPTS = 10
#: Per-TCP-connect timeout inside the dial loop (the loop's *total*
#: budget is the manifest's ``connect_timeout_s``).
_CONNECT_ATTEMPT_S = 2.0


def classify_exception(exc: BaseException) -> tuple[str, str]:
    """Map a failure to its (cause, classification) for the supervisor.

    Order matters: the framing/transport hierarchies overlap
    (``ReceiveTimeout`` and ``ConnectionClosedError`` subclass
    ``FramingError``; ``TransportTimeoutError`` subclasses
    ``ProtocolDesyncError``; ``HandshakePeerLost`` subclasses
    ``HandshakeError``), so the retryable leaves are matched before
    their fatal ancestors.
    """
    if isinstance(exc, CheckpointDivergenceError):
        return CAUSE_DIGEST_DIVERGENCE, FATAL
    if isinstance(exc, CheckpointError):
        return CAUSE_CHECKPOINT_INVALID, FATAL
    # Before every retryable branch: FrameAuthenticationError subclasses
    # FramingError, and an auth failure (tamper or PSK mismatch) re-fails
    # identically on every retry -- fatal, never charged to the budget.
    if isinstance(exc, FrameAuthenticationError):
        return CAUSE_AUTH_FAILED, FATAL
    if isinstance(exc, HandshakePeerLost):
        return CAUSE_CONNECTION_LOST, RETRYABLE
    if isinstance(exc, HandshakeError):
        return CAUSE_HANDSHAKE_REFUSED, FATAL
    if isinstance(exc, (TransportTimeoutError, ReceiveTimeout,
                        LinkupTimeoutError)):
        return CAUSE_TIMEOUT, RETRYABLE
    if isinstance(exc, (TransportClosedError, ConnectionClosedError,
                        PeerLostError)):
        return CAUSE_CONNECTION_LOST, RETRYABLE
    if isinstance(exc, (ProtocolDesyncError, MirrorChannelError,
                        FramingError, SerializationError)):
        return CAUSE_DESYNC, FATAL
    return CAUSE_INTERNAL, FATAL


@dataclass
class _PairRuntime:
    """One link: connection, live transport, mirrored channel, session.

    ``channel``/``session``/``parties`` are filled after the resume
    negotiation (the channel may start on a replay transport);
    ``connection``/``transport`` are ``None`` in the offline-rebuild
    path, where a fully-checkpointed party reconstructs its report with
    no peers left to talk to.
    """

    left: str
    right: str
    peer: str
    connection: FramedConnection | None
    transport: TcpTransport | None
    channel: MirrorChannel | None = None
    session: SmcSession | None = None
    parties: dict[str, Party] = field(default_factory=dict)


@dataclass(frozen=True)
class PartyReport:
    """What one party process hands back to the orchestrator.

    ``elapsed_seconds`` covers the whole run (link-up, key derivation
    and exchange, passes, and any recovery cycles); ``passes_seconds``
    covers only the protocol passes of the final successful attempt, so
    benchmarks can separate socket/round-trip cost from one-time setup.

    ``runtime_info`` is an optional, runtime-specific diagnostics dict
    (absent on PR-5-era reports, tolerated by ``from_json``).  The
    daemon runtime reports per-session amortization figures there:
    whether the session warm-started on an already-warmed engine,
    setup vs pass timings, and the randomness-pool hit/miss counts from
    ``SmcSession.pool_report()``.
    """

    party: str
    labels: tuple[int, ...]
    ledger_events: tuple[tuple[str, str, str, str], ...]
    pair_reports: dict
    elapsed_seconds: float
    passes_seconds: float
    runtime_info: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "party": self.party,
            "labels": list(self.labels),
            "ledger_events": [list(event) for event in self.ledger_events],
            "pair_reports": self.pair_reports,
            "elapsed_seconds": self.elapsed_seconds,
            "passes_seconds": self.passes_seconds,
        }
        if self.runtime_info:
            payload["runtime_info"] = self.runtime_info
        return json.dumps(payload, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, payload: str) -> "PartyReport":
        data = json.loads(payload)
        return cls(
            party=data["party"],
            labels=tuple(data["labels"]),
            ledger_events=tuple(tuple(event)
                                for event in data["ledger_events"]),
            pair_reports=data["pair_reports"],
            elapsed_seconds=data["elapsed_seconds"],
            passes_seconds=data["passes_seconds"],
            runtime_info=data.get("runtime_info", {}),
        )

    def ledger(self) -> LeakageLedger:
        ledger = LeakageLedger()
        for protocol, learner, disclosure, detail in self.ledger_events:
            ledger.events.append(LeakageEvent(
                protocol=protocol, learner=learner,
                disclosure=Disclosure(disclosure), detail=detail))
        return ledger


class _LocalMeshView:
    """The ``PartyMesh`` surface of one party's k-1 mirrored links.

    Implements exactly the methods the driver-pass machinery touches
    (``peers_of`` / ``session_between`` / ``party_in_pair`` /
    ``begin_peer_query``), with ``begin_peer_query`` emitting the
    control frame the remote responder is waiting on (suppressed during
    replay -- nobody is listening to history).
    """

    def __init__(self, process: "PartyProcess"):
        self._process = process

    def peers_of(self, name: str) -> list[str]:
        return self._process.manifest.peers_of(name)

    def _pair(self, a: str, b: str) -> _PairRuntime:
        local = self._process.name
        peer = b if a == local else a
        try:
            return self._process.pairs[peer]
        except KeyError:
            raise PartyRuntimeError(
                f"no link between {a!r} and {b!r} in process "
                f"{local!r}") from None

    def session_between(self, a: str, b: str) -> SmcSession:
        return self._pair(a, b).session

    def party_in_pair(self, name: str, peer: str) -> Party:
        return self._pair(name, peer).parties[name]

    def begin_peer_query(self, driver_name: str, peer_name: str) -> None:
        self._process.announce_query(peer_name)


class PartyProcess:
    """One party's full fault-tolerant runtime over real sockets."""

    def __init__(self, manifest: RunManifest, name: str,
                 points: list[tuple[int, ...]], *,
                 run_dir: pathlib.Path | None = None,
                 resume_from: PartyCheckpoint | None = None,
                 epoch: int = 0,
                 fail_after_queries: int | None = None,
                 psk: str | None = None,
                 bind_host: str | None = None,
                 trace_dir: str | pathlib.Path | None = None):
        manifest.slot_of(name)
        if len(points) != manifest.counts[name]:
            raise PartyRuntimeError(
                f"partition for {name!r} has {len(points)} points but the "
                f"manifest declares {manifest.counts[name]}")
        for point in points:
            if len(point) != manifest.dimensions:
                raise PartyRuntimeError(
                    f"point {point!r} has {len(point)} dimensions, "
                    f"manifest declares {manifest.dimensions}")
        self.manifest = manifest
        self.name = name
        self.points = [tuple(point) for point in points]
        # Multi-host meshes listen on an interface (e.g. "0.0.0.0")
        # different from the address peers dial; loopback runs leave it
        # None and bind the manifest host as before.
        self.bind_host = bind_host
        if manifest.link_auth and not psk:
            raise PartyRuntimeError(
                f"manifest for session {manifest.session_id!r} requires "
                f"link authentication but no pre-shared key was provided "
                f"(pass psk=... / --psk / REPRO_PSK)")
        # The PSK never enters the manifest; the session id is the MAC
        # context, so a frame captured from another session (same PSK)
        # fails verification here.
        self._authenticator = (FrameAuthenticator(psk, manifest.session_id)
                               if manifest.link_auth else None)
        self.run_dir = (pathlib.Path(run_dir)
                        if run_dir is not None else None)
        self.pairs: dict[str, _PairRuntime] = {}
        self.epoch = epoch
        self._digest = manifest_digest(manifest)
        self._checkpoint = resume_from
        self.passes_done = (resume_from.passes_done
                            if resume_from is not None else 0)
        self._fault_plan = FaultPlan.from_dicts(manifest.faults)
        self._faults = self._fault_plan.for_party(name, epoch)
        self._recoveries = 0
        self._recovery_rng = jitter_rng(manifest.seed_of(name),
                                        "recovery", name)
        self._phase = "init"
        self._replaying = False
        self._ledger = LeakageLedger()
        self._labels: tuple[int, ...] | None = None
        self._pass_records: list[PassRecord] = []
        self._queries_seen = 0
        self._queries_in_pass = 0
        self._fail_after_queries = fail_after_queries
        # Observation only: spans record sizes and timings, never frame
        # bytes or plaintexts, so tracing cannot disturb bit-identity.
        self.tracer = tracer_for(trace_dir, name)
        self._session_span = NULL_SPAN

    # -- link-up -----------------------------------------------------------

    def _hello(self, left: str, right: str) -> Hello:
        return Hello(version=PROTOCOL_VERSION,
                     session_id=self.manifest.session_id,
                     pair_left=left, pair_right=right,
                     party_id=self.name, config_digest=self._digest,
                     epoch=self.epoch, passes_done=self.passes_done)

    def _listen(self, port: int, pair: str) -> socket.socket:
        last_error: OSError | None = None
        for attempt in range(_BIND_ATTEMPTS):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((self.bind_host or self.manifest.host, port))
                listener.listen(1)
                return listener
            except OSError as exc:
                listener.close()
                last_error = exc
                time.sleep(0.05 * (attempt + 1))
        raise PartyRuntimeError(
            f"{self.name!r} could not bind port {port} for pair {pair} "
            f"after {_BIND_ATTEMPTS} attempts: {last_error}")

    def _make_connection(self, sock: socket.socket,
                         key: str) -> FramedConnection:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        name = f"{self.name}@{key}"
        frame_specs = self._faults.frame_specs(key)
        if frame_specs:
            return FaultyConnection(
                sock, specs=frame_specs,
                state=lambda: self.passes_done,
                timeout_s=self.manifest.timeout_s, name=name,
                authenticator=self._authenticator)
        return FramedConnection(sock, timeout_s=self.manifest.timeout_s,
                                name=name,
                                authenticator=self._authenticator)

    def _handshake_and_register(self, sock: socket.socket, left: str,
                                right: str, expected_peer: str) -> Hello:
        key = pair_key(left, right)
        connection = self._make_connection(sock, key)
        try:
            theirs = perform_handshake(connection, self._hello(left, right),
                                       expected_peer)
        except (HandshakePeerLost, FrameAuthenticationError):
            connection.close()
            raise
        transport = TcpTransport(left, right, connection,
                                 local_name=self.name)
        self.pairs[expected_peer] = _PairRuntime(
            left=left, right=right, peer=expected_peer,
            connection=connection, transport=transport)
        return theirs

    def _handle_link_refusal(self, exc: HandshakeError) -> None:
        """Re-raise unless the refusal is epoch skew we can ride out."""
        if exc.field_name != "epoch":
            raise exc
        if isinstance(exc.theirs, int) and exc.theirs > self.epoch:
            raise _EpochOutdated(exc.theirs) from exc
        # The peer is behind: it read our hello, is adopting our epoch,
        # and will reconnect -- retry the link.

    def _dial_link(self, left: str, right: str) -> Hello:
        manifest = self.manifest
        key = pair_key(left, right)
        deadline = time.monotonic() + manifest.connect_timeout_s
        rng = jitter_rng(manifest.seed_of(self.name), "dial", key,
                         self.epoch)
        last_error: Exception | None = None
        for attempt in range(manifest.connect_retries):
            if attempt > 0 and time.monotonic() >= deadline:
                break
            try:
                sock = socket.create_connection(
                    (manifest.host, manifest.ports[key]),
                    timeout=min(_CONNECT_ATTEMPT_S,
                                manifest.connect_timeout_s))
            except OSError as exc:
                last_error = exc
                time.sleep(backoff_delay(manifest.backoff_base_s, attempt,
                                         rng))
                continue
            try:
                return self._handshake_and_register(sock, left, right,
                                                    expected_peer=left)
            except HandshakePeerLost as exc:
                last_error = exc
            except HandshakeError as exc:
                self._handle_link_refusal(exc)
                last_error = exc
            time.sleep(backoff_delay(manifest.backoff_base_s, attempt, rng))
        raise LinkupTimeoutError(
            f"{self.name!r} could not link pair {key} (dialing port "
            f"{manifest.ports[key]}) within {manifest.connect_timeout_s}s /"
            f" {manifest.connect_retries} attempts at epoch {self.epoch}: "
            f"{last_error}")

    def _accept_link(self, listener: socket.socket, left: str, right: str,
                     expected_peer: str) -> Hello:
        manifest = self.manifest
        key = pair_key(left, right)
        deadline = time.monotonic() + manifest.connect_timeout_s
        last_error: Exception | None = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise LinkupTimeoutError(
                    f"{self.name!r} waited {manifest.connect_timeout_s}s "
                    f"on port {manifest.ports[key]} for {expected_peer!r} "
                    f"to dial pair {key} at epoch {self.epoch}; it never "
                    f"linked up ({last_error})")
            listener.settimeout(remaining)
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            try:
                return self._handshake_and_register(sock, left, right,
                                                    expected_peer)
            except HandshakePeerLost as exc:
                last_error = exc
            except HandshakeError as exc:
                self._handle_link_refusal(exc)
                last_error = exc

    def _establish_links(self) -> dict[str, int]:
        """Listen (lower slot) / dial (higher slot) + handshake per pair.

        All listeners are created before any dial, so dial-with-retry
        converges as soon as every process has started; every handshake
        is send-then-read, so the hello frames cross in flight and no
        ordering of the k processes can deadlock the link-up.  Returns
        each peer's hello-carried completed-pass count for the resume
        negotiation.
        """
        manifest = self.manifest
        listeners: dict[str, tuple[socket.socket, str]] = {}
        peer_passes: dict[str, int] = {}
        for left, right in manifest.pairs_of(self.name):
            key = pair_key(left, right)
            if self.name == left:
                listeners[key] = (self._listen(manifest.ports[key], key),
                                  right)
        try:
            for left, right in manifest.pairs_of(self.name):
                if self.name != right:
                    continue
                theirs = self._dial_link(left, right)
                peer_passes[left] = theirs.passes_done
            for left, right in manifest.pairs_of(self.name):
                key = pair_key(left, right)
                if self.name != left:
                    continue
                listener, expected = listeners[key]
                listener.settimeout(manifest.connect_timeout_s)
                refuse_first_accept(listener, self._faults, key)
                theirs = self._accept_link(listener, left, right, expected)
                peer_passes[expected] = theirs.passes_done
        except BaseException:
            self._close_all(goodbye=False)
            raise
        finally:
            for listener, _ in listeners.values():
                listener.close()
        return peer_passes

    # -- channels / sessions ----------------------------------------------

    def _bind_channels(self, resume_pass: int) -> None:
        """One mirrored channel per pair -- over the recorded wire view
        when resuming (live transports take over after replay)."""
        frames = (self._checkpoint.frames_up_to(resume_pass)
                  if resume_pass > 0 else {})
        for pair in self.pairs.values():
            key = pair_key(pair.left, pair.right)
            if resume_pass > 0:
                transport = ReplayTransport(pair.left, pair.right,
                                            self.name,
                                            frames.get(key, []))
            else:
                transport = pair.transport
            pair.channel = MirrorChannel(pair.left, pair.right, self.name,
                                         transport)

    def build_sessions(self) -> None:
        """Sessions in *global* pair order: deadlock-free key exchange.

        Each link's key exchange blocks only on the peer's opening frame
        for that link, and every process visits its links in the shared
        global order -- so the smallest not-yet-built pair always has
        both owners working on it, and link-up progresses.  Key material
        is *sealed*: this process derives only its OWN slot's keypair
        from the shared ``key_seed`` (exactly as ``PartyMesh`` derives
        that slot, so its announced public key -- and everything
        encrypted under it -- matches the in-process run byte for byte);
        every peer's context starts as a placeholder whose private half
        is a :class:`~repro.crypto.sealed.SealedPaillierPrivateKey`
        holding no secret at all.  The session's key exchange then
        captures each peer's authentic public key from the wire and
        pins it against the manifest's ``key_digests``.  On resume the
        exchange replays from the recorded view: the identical frames,
        no new traffic.
        """
        config = self.manifest.protocol_config()
        provider = SealedKeyProvider(config.smc, self.name,
                                     key_digests=self.manifest.key_digests)
        contexts = {
            name: provider.context_for(name, slot)
            for slot, name in enumerate(self.manifest.names)
        }
        for left, right in self.manifest.pairs():
            if self.name not in (left, right):
                continue
            pair = self.pairs[right if self.name == left else left]
            channel = pair.channel
            left_party = Party(channel.left, derive_pair_rng(
                self.manifest.seed_of(left), left, left, right,
                namespace=self.manifest.rng_namespace))
            right_party = Party(channel.right, derive_pair_rng(
                self.manifest.seed_of(right), right, left, right,
                namespace=self.manifest.rng_namespace))
            pair.parties = {left: left_party, right: right_party}
            pair.session = SmcSession(left_party, right_party, config.smc,
                                      preset_contexts=contexts)

    # -- control plane -----------------------------------------------------

    def announce_query(self, peer: str) -> None:
        if self._replaying:
            return
        self._count_query()
        try:
            self.pairs[peer].connection.write_frame(
                FRAME_CONTROL, serialize_message([CONTROL_QUERY]))
        except ConnectionClosedError as exc:
            raise PeerLostError(
                f"{self.name!r} lost peer {peer!r} while announcing a "
                f"query: {exc}", peer=peer, frame="control/query") from exc

    def _count_query(self) -> None:
        self._queries_seen += 1
        self._queries_in_pass += 1
        in_pass = self._queries_in_pass
        fired = self._faults.on_query(self.passes_done, in_pass)
        if (self._fail_after_queries is not None
                and self._queries_seen > self._fail_after_queries):
            # Legacy failure-injection hook (pre-FaultPlan): die the way
            # a crashed process dies -- no goodbye, no cleanup.
            print(f"[fault injection] {self.name} dying after "
                  f"{self._fail_after_queries} queries", flush=True)
            os._exit(13)
        self._apply_fired_faults(
            fired, f"mid-pass at {self.passes_done} passes, query {in_pass}")

    def _apply_fired_faults(self, fired, context: str) -> None:
        for spec in fired:
            if spec.kind == "kill":
                PartyFaults.die(spec, context)
        for spec in fired:
            if spec.kind == "drop":
                pair = self._pair_by_key(spec.pair_key())
                if pair is not None and pair.connection is not None:
                    # Abrupt close, no goodbye: the peer sees a bare
                    # EOF, exactly like a crashed network path.
                    pair.connection.close()
                raise PeerLostError(
                    f"[fault injection] {self.name} dropped link "
                    f"{spec.pair_key()} {context}",
                    peer=pair.peer if pair else None)

    def _pair_by_key(self, key: str | None) -> _PairRuntime | None:
        for pair in self.pairs.values():
            if pair_key(pair.left, pair.right) == key:
                return pair
        return None

    def _read_control(self, pair: _PairRuntime) -> list:
        while True:
            try:
                kind, payload = pair.connection.read_frame()
                break
            except ReceiveTimeout:
                # Waiting for the next control frame is idle *by
                # design*: the driver may legitimately spend longer than
                # any per-message timeout querying its other peers or
                # computing locally.  Liveness does not suffer -- a dead
                # peer surfaces immediately as EOF/reset below, and a
                # hung-but-alive fleet is bounded by the orchestrator's
                # run deadline (or the operator, for hand-run parties).
                continue
            except FrameAuthenticationError:
                # Fatal, not a lost peer: the classifier must see the
                # auth failure, not a retryable connection loss.
                raise
            except (ConnectionClosedError, FramingError) as exc:
                raise PeerLostError(
                    f"{self.name!r} lost peer {pair.peer!r} while waiting "
                    f"for a control frame: {exc}", peer=pair.peer,
                    frame="control") from exc
        if kind == FRAME_GOODBYE:
            raise PeerLostError(
                f"peer {pair.peer!r} closed the link "
                f"({payload.decode('utf-8', 'replace')!r}) while "
                f"{self.name!r} awaited its next query", peer=pair.peer,
                frame="goodbye") from None
        if kind != FRAME_CONTROL:
            raise PartyRuntimeError(
                f"{self.name!r} expected a control frame from "
                f"{pair.peer!r}, got kind {kind!r} (protocol frames must "
                f"not precede the query announcement)")
        try:
            record = deserialize_message(payload)
        except (SerializationError, UnicodeDecodeError) as exc:
            raise PartyRuntimeError(
                f"unreadable control frame from {pair.peer!r}: "
                f"{exc}") from exc
        if (not isinstance(record, list) or not record
                or record[0] not in (CONTROL_QUERY, CONTROL_END_PASS)):
            raise PartyRuntimeError(
                f"malformed control record from {pair.peer!r}: {record!r}")
        return record

    # -- the supervised run ------------------------------------------------

    def run(self) -> PartyReport:
        """Execute (or resume) the session, recovering from retryable
        failures until the manifest's recovery budget runs out."""
        started = time.perf_counter()
        attempts: list[dict] = []
        while True:
            try:
                return self._attempt(started)
            except _EpochOutdated as outdated:
                self._close_all("recovering: adopting mesh epoch")
                self.epoch = max(self.epoch, outdated.epoch)
                self._reset_to_checkpoint()
                continue
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                cause, classification = classify_exception(exc)
                attempts.append({"epoch": self.epoch, "phase": self._phase,
                                 "cause": cause,
                                 "error": str(exc)[:400]})
                if classification == FATAL:
                    self._fail(cause, FATAL, str(exc), attempts, exc)
                    self._close_all(f"fatal: {cause}")
                    raise
                budget = self.manifest.recovery_budget
                if self._recoveries >= budget:
                    message = (f"{self.name!r}: recovery budget of "
                               f"{budget} exhausted at epoch {self.epoch} "
                               f"(last failure: {cause}: {exc})")
                    self._fail(CAUSE_BUDGET_EXHAUSTED, FATAL, message,
                               attempts, exc)
                    self._close_all("recovery budget exhausted")
                    raise PartyRuntimeError(message) from exc
                self._recoveries += 1
                print(f"[recovery] {self.name}: {cause} at epoch "
                      f"{self.epoch} ({self._phase}); starting cycle "
                      f"{self._recoveries}/{budget}", flush=True)
                self._close_all("recovering")
                self.epoch += 1
                self._reset_to_checkpoint()
                time.sleep(backoff_delay(self.manifest.backoff_base_s,
                                         self._recoveries,
                                         self._recovery_rng))

    def _attempt(self, started: float) -> PartyReport:
        manifest = self.manifest
        total_passes = len(manifest.names)
        self._faults = self._fault_plan.for_party(self.name, self.epoch)
        self.pairs = {}
        self._ledger = LeakageLedger()
        self._labels = None
        self._pass_records = []
        self._replaying = False
        self._queries_in_pass = 0

        if self.passes_done >= total_passes:
            # Every pass is already checkpointed (the process died
            # between its final checkpoint and its report); the peers
            # have finished and exited, so rebuild entirely offline.
            self._register_offline_pairs()
            resume_pass = total_passes
        else:
            self._phase = "link-up"
            peer_passes = self._establish_links()
            resume_pass = min([self.passes_done, *peer_passes.values()])
            self.passes_done = resume_pass

        config = manifest.protocol_config()
        view = _LocalMeshView(self)
        # The placeholder partitions: public counts, all-zero coordinates
        # (see RunManifest.placeholder_points / the mirror docstring).
        points_view = {name: (self.points if name == self.name
                              else manifest.placeholder_points(name))
                       for name in manifest.names}

        self._bind_channels(resume_pass)
        executor = PassExecutor()
        passes_started = time.perf_counter()
        self._session_span = self.tracer.span(
            "session", manifest.session_id, epoch=self.epoch,
            resume_pass=resume_pass, recoveries=self._recoveries,
            parties=len(manifest.names), points=len(self.points))
        try:
            self._phase = "session"
            self.build_sessions()
            if resume_pass > 0:
                self._phase = "replay"
                self._replay_passes(resume_pass, view, points_view, config,
                                    executor)
            self._phase = "pass"
            for pass_index in range(resume_pass, total_passes):
                self._run_pass(pass_index, view, points_view, config,
                               executor)
        finally:
            self._session_span.close()
            self._session_span = NULL_SPAN

        self._phase = "report"
        finished = time.perf_counter()
        report = self._build_report(self._labels or (), self._ledger,
                                    elapsed=finished - started,
                                    passes=finished - passes_started)
        self._teardown()
        return report

    def _register_offline_pairs(self) -> None:
        for left, right in self.manifest.pairs():
            if self.name not in (left, right):
                continue
            peer = right if self.name == left else left
            self.pairs[peer] = _PairRuntime(
                left=left, right=right, peer=peer,
                connection=None, transport=None)

    # -- passes ------------------------------------------------------------

    def _run_pass(self, pass_index: int, view: _LocalMeshView,
                  points_view: dict, config, executor) -> None:
        manifest = self.manifest
        driver = manifest.names[pass_index]
        self._queries_in_pass = 0
        role = "drive" if driver == self.name else "respond"
        with self._session_span.child("pass", f"pass{pass_index}",
                                      index=pass_index, role=role,
                                      driver=driver) as pass_span:
            if driver == self.name:
                caches = ({peer: PeerCipherCache()
                           for peer in view.peers_of(driver)}
                          if config.cache_peer_ciphertexts else None)
                result = _driver_pass(view, driver, points_view, config,
                                      manifest.value_bound, self._ledger,
                                      caches, executor)
                self._labels = result.as_tuple()
                served = 0
                for peer in view.peers_of(driver):
                    try:
                        self.pairs[peer].connection.write_frame(
                            FRAME_CONTROL,
                            serialize_message([CONTROL_END_PASS]))
                    except ConnectionClosedError as exc:
                        raise PeerLostError(
                            f"{self.name!r} lost peer {peer!r} while "
                            f"ending its pass: {exc}", peer=peer,
                            frame="control/end_pass") from exc
            else:
                served = self._respond_pass(driver, config)
                pass_span.set(served=served)
        self.passes_done = pass_index + 1
        self._record_pass(driver, served)
        self._phase = "checkpoint"
        self._write_checkpoint()
        self._phase = "pass"
        fired = self._faults.at_boundary(self.passes_done)
        self._apply_fired_faults(
            fired, f"at boundary {self.passes_done}")

    def _respond_pass(self, driver: str, config) -> int:
        """Serve one remote driver's pass on our shared link.

        Each announced query runs the *same* ``secure_peer_neighbor_count``
        choreography the driver runs, with a placeholder query point; only
        this party's steps execute here, and the mirror substitutes every
        driver-side frame with the authentic one.  The returned count and
        disclosures are placeholders of the driver's view and are
        discarded -- the driver's process records them from authentic
        data.  Returns how many queries were served (the checkpoint
        needs it: control frames are not part of the transcript, so
        replay re-serves from this count).
        """
        if driver not in self.pairs:
            return 0
        pair = self.pairs[driver]
        # A driver skips empty peers entirely, so a party with no points
        # only ever sees the end-of-pass marker here.
        cache = (PeerCipherCache() if config.cache_peer_ciphertexts
                 else None)
        discard = LeakageLedger()
        placeholder = tuple([0] * self.manifest.dimensions)
        label = f"multiparty/{driver}-{self.name}"
        served = 0
        while True:
            record = self._read_control(pair)
            if record[0] == CONTROL_END_PASS:
                return served
            served += 1
            self._count_query()
            secure_peer_neighbor_count(
                pair.session, pair.parties[driver], placeholder,
                pair.parties[self.name], self.points, config,
                self.manifest.value_bound, discard, cache, label=label,
                cached_label=f"{label}/cached")

    # -- replay ------------------------------------------------------------

    def _replay_passes(self, resume_pass: int, view: _LocalMeshView,
                       points_view: dict, config, executor) -> None:
        """Re-execute the completed passes against the recorded view.

        The channels are bound to :class:`ReplayTransport`s, so every
        recomputed outbound frame is verified against the record and
        every inbound frame is served from it -- no network traffic, no
        re-transmission, and the party ends in exactly the state it had
        at the checkpoint boundary (labels, ledger, RNG streams, pools,
        stats, transcripts).  Ends by cross-checking the boundary
        transcript digests and rebinding the channels to the live
        transports.
        """
        manifest = self.manifest
        old = self._checkpoint
        self._replaying = True
        try:
            for pass_index in range(resume_pass):
                driver = manifest.names[pass_index]
                if driver == self.name:
                    caches = ({peer: PeerCipherCache()
                               for peer in view.peers_of(driver)}
                              if config.cache_peer_ciphertexts else None)
                    result = _driver_pass(view, driver, points_view,
                                          config, manifest.value_bound,
                                          self._ledger, caches, executor)
                    self._labels = result.as_tuple()
                    served = 0
                else:
                    served = old.record_for(pass_index + 1).served_queries
                    self._replay_respond(driver, config, served)
                self._record_pass(driver, served)
        finally:
            self._replaying = False
        expected = old.record_for(resume_pass).pair_digests
        for pair in self.pairs.values():
            key = pair_key(pair.left, pair.right)
            pair.channel.transport.assert_exhausted()
            got = transcript_digest(pair.channel.transcript)
            if got != expected.get(key):
                raise CheckpointDivergenceError(
                    f"{self.name!r}: replayed transcript digest for pair "
                    f"{key} is {got[:12]}..., checkpoint recorded "
                    f"{str(expected.get(key))[:12]}... at boundary "
                    f"{resume_pass}")
            if pair.transport is not None:
                pair.channel.rebind_transport(pair.transport)
        self.passes_done = resume_pass

    def _replay_respond(self, driver: str, config, served: int) -> None:
        if driver not in self.pairs:
            return
        pair = self.pairs[driver]
        cache = (PeerCipherCache() if config.cache_peer_ciphertexts
                 else None)
        discard = LeakageLedger()
        placeholder = tuple([0] * self.manifest.dimensions)
        label = f"multiparty/{driver}-{self.name}"
        for _ in range(served):
            secure_peer_neighbor_count(
                pair.session, pair.parties[driver], placeholder,
                pair.parties[self.name], self.points, config,
                self.manifest.value_bound, discard, cache, label=label,
                cached_label=f"{label}/cached")

    # -- checkpoints -------------------------------------------------------

    def _record_pass(self, driver: str, served: int) -> None:
        frame_counts: dict[str, int] = {}
        digests: dict[str, str] = {}
        for pair in self.pairs.values():
            key = pair_key(pair.left, pair.right)
            frame_counts[key] = len(pair.channel.frame_log)
            digests[key] = transcript_digest(pair.channel.transcript)
        self._pass_records.append(PassRecord(
            driver=driver, served_queries=served,
            frame_counts=frame_counts, pair_digests=digests))

    def _write_checkpoint(self) -> None:
        frames: dict[str, list] = {}
        stats: dict[str, dict] = {}
        comparisons: dict[str, int] = {}
        for pair in self.pairs.values():
            key = pair_key(pair.left, pair.right)
            frames[key] = list(pair.channel.frame_log)
            stats[key] = pair.channel.stats.snapshot()
            comparisons[key] = pair.session.comparison_backend.invocations
        checkpoint = PartyCheckpoint(
            party=self.name,
            session_id=self.manifest.session_id,
            manifest_sha256=self._digest,
            epoch=self.epoch,
            passes_done=self.passes_done,
            labels=self._labels,
            ledger_events=self._ledger_events(),
            pass_records=list(self._pass_records),
            frames=frames,
            stats=stats,
            comparisons=comparisons,
        )
        self._checkpoint = checkpoint
        if self.run_dir is not None:
            write_checkpoint(self.run_dir, checkpoint)

    def _ledger_events(self) -> tuple[tuple[str, str, str, str], ...]:
        return tuple((event.protocol, event.learner,
                      event.disclosure.value, event.detail)
                     for event in self._ledger.events)

    def _reset_to_checkpoint(self) -> None:
        """Rewind in-memory progress to the last persisted boundary."""
        self.passes_done = (self._checkpoint.passes_done
                            if self._checkpoint is not None else 0)

    # -- failure / teardown ------------------------------------------------

    def _fail(self, cause: str, classification: str, message: str,
              attempts: list[dict], exc: BaseException) -> None:
        if self.run_dir is None:
            return
        write_failure(self.run_dir, FailureReport(
            party=self.name, cause=cause, classification=classification,
            message=message, phase=self._phase,
            pass_index=self.passes_done, epoch=self.epoch,
            peer=getattr(exc, "peer", None),
            last_frame=getattr(exc, "frame", None),
            attempts=tuple(attempts)))

    def _close_all(self, reason: str | None = None, *,
                   goodbye: bool = True) -> None:
        for pair in self.pairs.values():
            connection = pair.connection
            if connection is None or connection.closed:
                continue
            if goodbye:
                try:
                    connection.write_goodbye(reason or "closing")
                except (FramingError, OSError):
                    pass
            connection.close()
        self.pairs = {}

    def _build_report(self, labels: tuple[int, ...],
                      ledger: LeakageLedger, *,
                      elapsed: float, passes: float) -> PartyReport:
        pair_reports = {}
        for peer, pair in self.pairs.items():
            pair.channel.assert_drained()
            key = pair_key(pair.left, pair.right)
            pair_reports[key] = {
                "stats": pair.channel.stats.snapshot(),
                "transcript_sha256": transcript_digest(
                    pair.channel.transcript),
                "messages": pair.channel.transcript.message_count(),
                "comparisons": pair.session.comparison_backend.invocations,
            }
        events = tuple((event.protocol, event.learner,
                        event.disclosure.value, event.detail)
                       for event in ledger.events)
        return PartyReport(party=self.name, labels=labels,
                           ledger_events=events,
                           pair_reports=pair_reports,
                           elapsed_seconds=elapsed,
                           passes_seconds=passes)

    def _teardown(self) -> None:
        for pair in self.pairs.values():
            if pair.channel is not None:
                pair.channel.close(reason=f"{self.name}: run complete")


def run_party(run_dir: str | pathlib.Path, name: str, *,
              fail_after_queries: int | None = None,
              resume: bool = False, epoch: int = 0,
              psk: str | None = None,
              bind_host: str | None = None,
              trace_dir: str | pathlib.Path | None = None) -> PartyReport:
    """CLI entry: load manifest + own partition, run, write the report.

    With ``resume=True`` the party first loads its checkpoint from the
    run directory (validated against the session and manifest) and
    rejoins the mesh at ``max(epoch, checkpoint epoch + 1)`` -- the
    orchestrator's ``epoch`` is a hint; the checkpoint knows the last
    epoch this party actually reached, and the handshake's adopt-max
    rule absorbs any remaining skew.

    ``psk`` (default: the ``REPRO_PSK`` environment variable) is the
    out-of-band link-authentication secret, required when the manifest
    sets ``link_auth``; ``bind_host`` overrides the listening interface
    for multi-host meshes.
    """
    run_path = pathlib.Path(run_dir)
    if psk is None:
        psk = os.environ.get("REPRO_PSK") or None
    if trace_dir is None:
        trace_dir = os.environ.get("REPRO_TRACE_DIR") or None
    manifest = RunManifest.from_json(
        (run_path / "manifest.json").read_text())
    partition = json.loads(
        (run_path / f"partition_{name}.json").read_text())
    points = [tuple(point) for point in partition["points"]]
    checkpoint = None
    if resume:
        try:
            checkpoint = load_checkpoint(
                run_path, name, session_id=manifest.session_id,
                manifest_sha256=manifest_digest(manifest))
        except CheckpointError as exc:
            write_failure(run_path, FailureReport(
                party=name, cause=CAUSE_CHECKPOINT_INVALID,
                classification=FATAL, message=str(exc), phase="resume",
                epoch=epoch))
            raise
        if checkpoint is not None:
            epoch = max(epoch, checkpoint.epoch + 1)
    process = PartyProcess(manifest, name, points, run_dir=run_path,
                           resume_from=checkpoint, epoch=epoch,
                           fail_after_queries=fail_after_queries,
                           psk=psk, bind_host=bind_host,
                           trace_dir=trace_dir)
    try:
        report = process.run()
    finally:
        process.tracer.close()
    (run_path / f"report_{name}.json").write_text(report.to_json())
    return report
