"""Multi-party extension (paper Section 1: "the two-party algorithm can
be extended to multi-party cases").

The paper develops its protocols for two parties and notes the
extension; this package realizes it for horizontally partitioned data:
``k`` parties, each holding a record subset, pairwise channels between
all of them, and the Algorithm 3/4 semantics generalized so every
party's density test counts the Eps-neighbours held by *all* peers
(each counted through an independent pairwise HDP run over that peer's
fresh permutation).

Privacy carries over pairwise: a driver learns, per query, one count
per peer (base protocol semantics, Theorem 9 applied pairwise); peers
learn nothing about each other's contributions.
"""

from repro.multiparty.mesh import PartyMesh, derive_pair_rng
from repro.multiparty.horizontal import (
    MultipartyRunResult,
    run_multiparty_horizontal_dbscan,
)
from repro.multiparty.scheduler import PassExecutor, PeerQuery

__all__ = [
    "PartyMesh",
    "derive_pair_rng",
    "MultipartyRunResult",
    "run_multiparty_horizontal_dbscan",
    "PassExecutor",
    "PeerQuery",
]
