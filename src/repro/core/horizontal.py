"""Privacy preserving DBSCAN over horizontally partitioned data.

Algorithms 3 and 4 of the paper for two parties: the ``k = 2`` case of
the k-party mesh
(:func:`~repro.multiparty.horizontal.run_multiparty_horizontal_dbscan`)
over parties ``alice`` and ``bob``.

- Alice drives a DBSCAN over *her* points in which every density test
  combines a local count (``seedsA``) with one secure count of Bob's
  freshly permuted points (``seedsB``, via Protocol HDP, steps 3/13 of
  Algorithm 4); the test uses ``|seedsA| + |seedsB|`` but expansion
  proceeds through ``seedsA`` only.  Each point asks its secure count
  once per pass, however often the traversal tests it.
- Bob then drives the symmetric pass over his points.

Each party ends with cluster numbers for its own records; the two
numberings are independent (see DESIGN.md Section 2, item 1 -- this is
what the published algorithm computes, *not* centralized DBSCAN, and the
plaintext model of it lives in
:func:`repro.clustering.union_density.union_density_dbscan`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ProtocolConfig
from repro.core.leakage import LeakageLedger
from repro.data.partitioning import HorizontalPartition
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh


@dataclass(frozen=True)
class HorizontalRunResult:
    """Output of a horizontal protocol run.

    Attributes:
        alice_labels / bob_labels: each party's cluster numbering over
            its own points.
        ledger: disclosure accounting for the whole run.
        stats: communication statistics snapshot (bytes, messages).
        comparisons: secure-comparison invocations across both passes.
    """

    alice_labels: tuple[int, ...]
    bob_labels: tuple[int, ...]
    ledger: LeakageLedger
    stats: dict
    comparisons: int


def run_horizontal_dbscan(partition: HorizontalPartition,
                          config: ProtocolConfig,
                          *, mesh: PartyMesh | None = None,
                          ) -> HorizontalRunResult:
    """Run Algorithms 3 + 4 over a horizontal partition.

    The run is the two-party mesh ``alice``/``bob`` with seeds
    ``[config.alice_seed, config.bob_seed]``.  A pre-built ``mesh`` over
    those two names may be supplied, so callers can run the offline
    phase (``mesh.precompute_pools``) outside whatever they are timing
    and read its pool report and pair transcript afterwards.
    """
    result = run_multiparty_horizontal_dbscan(
        {"alice": list(partition.alice_points),
         "bob": list(partition.bob_points)},
        config, seeds=[config.alice_seed, config.bob_seed], mesh=mesh)
    return HorizontalRunResult(
        alice_labels=result.labels_by_party["alice"],
        bob_labels=result.labels_by_party["bob"],
        ledger=result.ledger,
        stats=result.stats,
        comparisons=result.comparisons,
    )
