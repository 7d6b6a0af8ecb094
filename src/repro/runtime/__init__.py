"""Distributed runtime: party daemons over TCP, and the orchestrator.

An in-process :class:`~repro.net.channel.Channel` runs both parties of
a link inside one interpreter; this package runs the horizontal k-party
mesh across *real OS processes* over loopback (or LAN) TCP, on one
runtime:

- :mod:`repro.runtime.daemon` -- the party daemon: one asyncio event
  loop per party, persistent pair links carrying *many* interleaved
  clustering sessions (session-tagged frames, demultiplexed into
  per-session future queues), one warmed crypto engine shared across
  sessions.
- :mod:`repro.runtime.client` -- the submission plane: submit sessions,
  stream reports back, merge and cross-check them; plus the
  :class:`~repro.runtime.client.DaemonFleet` harness.
- :mod:`repro.runtime.orchestrator` -- one session on a throwaway
  process fleet, re-run on a fresh fleet after a retryable failure,
  merged into the same result shape the in-process mesh returns.
- :mod:`repro.runtime.handshake` -- the versioned link handshake that
  binds (protocol version, pair, party, mesh-spec digest, role) before
  any other byte flows, so mismatched deployments fail fast instead of
  desyncing mid-protocol.
- :mod:`repro.runtime.manifest` -- the public description of one
  session: party names, seeds, point counts, the protocol
  configuration, and any planned faults.
- :mod:`repro.runtime.mirror` -- the mirrored-choreography channel: a
  :class:`~repro.net.channel.Channel` whose far party is remote, which
  lets the existing two-sided protocol implementations run unchanged
  across a process boundary; a query awaits each peer frame that has
  not arrived on the daemon's event loop.
- :mod:`repro.runtime.async_pass` -- a daemon's pass roles: the points
  in flight and each query run once as a coroutine.
- :mod:`repro.runtime.failure` -- typed failure reports: the cause a
  daemon classifies and the retryable/fatal split the orchestrator
  acts on.
- :mod:`repro.runtime.faults` -- the manifest-carried, seeded fault
  plan (kills, drops, delays, truncations) that makes chaos runs as
  reproducible as fault-free ones.
- :mod:`repro.runtime.backoff` -- the seeded-jitter exponential
  backoff between orchestrated attempts.
"""

from repro.runtime.client import (
    DaemonFleet,
    DaemonRun,
    SessionClient,
    SessionClientError,
    run_via_daemons,
)
from repro.runtime.daemon import (
    DaemonError,
    MeshSpec,
    PartyDaemon,
    PartyReport,
    mesh_digest,
)
from repro.runtime.failure import FailureReport, classify_exception
from repro.runtime.faults import FaultPlan, FaultSpec, parse_fault
from repro.runtime.handshake import HandshakeError
from repro.runtime.manifest import (
    RunManifest,
    UnsupportedConfigError,
    manifest_digest,
)
from repro.runtime.orchestrator import (
    OrchestratedRun,
    OrchestrationError,
    orchestrate_run,
)

__all__ = [
    "DaemonError",
    "DaemonFleet",
    "DaemonRun",
    "FailureReport",
    "FaultPlan",
    "FaultSpec",
    "HandshakeError",
    "MeshSpec",
    "OrchestratedRun",
    "OrchestrationError",
    "PartyDaemon",
    "PartyReport",
    "RunManifest",
    "SessionClient",
    "SessionClientError",
    "UnsupportedConfigError",
    "classify_exception",
    "manifest_digest",
    "mesh_digest",
    "orchestrate_run",
    "parse_fault",
    "run_via_daemons",
]
