"""A real 3-party run: each data holder as its own OS process over TCP.

Everything the other examples simulate inside one interpreter happens
here across genuine process boundaries: ``orchestrate_run`` starts one
``repro serve`` daemon per clinic and submits the session; each daemon
receives *only its own* partition, links up with its peers over
loopback TCP (versioned handshake binding protocol version, pair, party,
and mesh digest), checks the session's manifest digest with every peer,
and runs its driver pass and responder duties.  If the session fails
retryably, the orchestrator re-runs it on a fresh fleet.

The run is then verified bit-for-bit against the in-process mesh on the
same seeds: identical labels, identical disclosure ledger, identical
per-pair message transcripts.  The latency you see is measured on real
sockets, not modeled.

Run:  python examples/distributed_mesh.py

To drive the daemons by hand instead (separate terminals):

    python -m repro mesh-spec /tmp/mesh.json --parties 3
    # then, one per terminal:
    python -m repro serve --spec /tmp/mesh.json --party party0
    python -m repro serve --spec /tmp/mesh.json --party party1
    python -m repro serve --spec /tmp/mesh.json --party party2
    # and submit a session to the standing mesh:
    python -m repro submit --spec /tmp/mesh.json --points 12 --verify
"""

import random

from repro.analysis.report import render_table
from repro.core.config import ProtocolConfig
from repro.data.generators import gaussian_blobs
from repro.runtime.orchestrator import (
    orchestrate_run,
    verify_against_in_process,
)
from repro.smc.session import SmcConfig

rng = random.Random(12)

# The three-clinic cohort from consortium_multiparty.py, now with every
# clinic as a separate networked process.
cohort = gaussian_blobs(rng, centers=[(20.0, 5.0)], points_per_blob=9,
                        spread=0.3)
points = {
    "clinic_a": cohort[0:3] + gaussian_blobs(
        rng, centers=[(5.0, 5.0)], points_per_blob=4, spread=0.4),
    "clinic_b": cohort[3:6],
    "clinic_c": cohort[6:9] + gaussian_blobs(
        rng, centers=[(40.0, 5.0)], points_per_blob=4, spread=0.4),
}
seeds = [1, 2, 3]

config = ProtocolConfig(eps=1.5, min_pts=6, scale=100,
                        smc=SmcConfig(paillier_bits=256, key_seed=6))

print("starting one daemon process per clinic (loopback TCP mesh)...")
run = orchestrate_run(points, config, seeds=seeds)

rows = [[name, len(points[name]), str(labels)]
        for name, labels in run.result.labels_by_party.items()]
print(render_table(["clinic", "points", "labels"], rows,
                   title="distributed three-clinic mesh "
                         "(separate processes, real sockets)"))
print(f"\nwall-clock over TCP: {run.elapsed_seconds:.2f}s  "
      f"bytes: {run.result.stats['total_bytes']:,}  "
      f"rounds: {run.result.stats['rounds']}")
print(f"secure comparisons: {run.result.comparisons}")
print(f"disclosures: {run.result.ledger.profile()}")
per_party = {name: f"{report.elapsed_seconds:.2f}s"
             for name, report in run.reports.items()}
print(f"per-party session wall-clock: {per_party}  "
      f"(attempts: {run.attempts})")

# Equivalence: the distributed run must be indistinguishable -- message
# for message -- from the in-process fabric on the same seeds.
checks = verify_against_in_process(run, points, config, seeds)
assert all(checks.values()), checks
print(f"\nverified bit-identical to the in-process mesh: "
      f"{', '.join(checks)}")
