"""Socket runtime: party processes over TCP and a session orchestrator.

The in-process fabric of :mod:`repro.net.transport` runs every party
inside one interpreter; this package runs the same protocols across
*real OS processes* over loopback (or LAN) TCP:

- :mod:`repro.runtime.handshake` -- the versioned link handshake that
  binds (session id, party id, pair id, config digest, recovery epoch)
  before any protocol byte flows, so mismatched deployments fail fast
  instead of desyncing mid-protocol.
- :mod:`repro.runtime.manifest` -- the public run description every
  party process loads: party names, seeds, point counts, the protocol
  configuration, the port plan, the recovery knobs, and any planned
  faults.
- :mod:`repro.runtime.mirror` -- the mirrored-choreography channel that
  lets the existing two-sided protocol implementations run unchanged
  across a process boundary (see the module docstring for the execution
  model and its equivalence guarantee).
- :mod:`repro.runtime.party` -- the party program: loads one data
  partition, dials/accepts its mesh links, runs its driver pass and
  serves its peers' passes, checkpoints at every pass boundary, resumes
  deterministically from its checkpoint, and reports labels / ledger /
  stats / transcript digests.
- :mod:`repro.runtime.checkpoint` -- pass-boundary checkpoints and the
  replay transport that rebuilds a resumed party's state bit-for-bit.
- :mod:`repro.runtime.failure` -- classified ``failure_<name>.json``
  reports: the contract between a dying party and the supervisor.
- :mod:`repro.runtime.faults` -- the manifest-carried, seeded fault
  plan (kills, drops, delays, truncations, refused connections) that
  makes chaos runs as reproducible as fault-free ones.
- :mod:`repro.runtime.backoff` -- the one seeded-jitter exponential
  backoff shared by dial retries, in-party recovery, and re-spawns.
- :mod:`repro.runtime.orchestrator` -- spawns the party programs as
  subprocesses, allocates ports, supervises them (re-spawning retryable
  deaths with ``--resume`` under a bounded budget), collects the
  per-party reports, and merges them into the same result shape the
  in-process mesh returns.
- :mod:`repro.runtime.daemon` -- the resident party daemon: one asyncio
  event loop per party, persistent pair links carrying *many*
  interleaved clustering sessions (session-tagged frames, demultiplexed
  into per-session future queues), one warmed crypto engine shared
  across sessions.
- :mod:`repro.runtime.client` -- the submission plane for daemon
  meshes: submit sessions, stream reports back, merge and cross-check
  them; plus the :class:`~repro.runtime.client.DaemonFleet` harness.
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
    mesh_digest,
)
from repro.runtime.checkpoint import (
    CheckpointDivergenceError,
    CheckpointError,
    PartyCheckpoint,
    load_checkpoint,
)
from repro.runtime.failure import FailureReport, load_failure
from repro.runtime.faults import FaultPlan, FaultSpec, parse_fault
from repro.runtime.handshake import HandshakeError, perform_handshake
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
from repro.runtime.party import run_party

__all__ = [
    "CheckpointDivergenceError",
    "CheckpointError",
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
    "PartyCheckpoint",
    "PartyDaemon",
    "RunManifest",
    "SessionClient",
    "SessionClientError",
    "UnsupportedConfigError",
    "load_checkpoint",
    "load_failure",
    "manifest_digest",
    "mesh_digest",
    "orchestrate_run",
    "parse_fault",
    "perform_handshake",
    "run_party",
    "run_via_daemons",
]
