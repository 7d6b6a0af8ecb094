"""The paper's primary contribution: privacy preserving distributed DBSCAN.

- :mod:`repro.core.config` -- run configuration.
- :mod:`repro.core.distance` -- the HDP / VDP / ADP distance protocols
  (Sections 4.2, 4.3, 4.4).
- :mod:`repro.core.horizontal` -- Algorithms 3 + 4 for two parties, the
  ``k = 2`` case of :mod:`repro.multiparty.horizontal`.
- :mod:`repro.core.vertical` -- Algorithms 5 + 6.
- :mod:`repro.core.arbitrary` -- Section 4.4 composition.
- :mod:`repro.core.enhanced` -- Section 5, Algorithms 7 + 8.
- :mod:`repro.core.leakage` -- machine-checkable disclosure accounting.
- :mod:`repro.core.simulators` -- the Definition 5 simulation harness.
- :mod:`repro.core.api` -- the one-call public entry point.
"""

from repro.core.config import ProtocolConfig
from repro.core.api import cluster_partitioned, ClusteringRun
from repro.core.horizontal import run_horizontal_dbscan
from repro.core.vertical import run_vertical_dbscan
from repro.core.arbitrary import run_arbitrary_dbscan
from repro.core.enhanced import run_enhanced_horizontal_dbscan

__all__ = [
    "ProtocolConfig",
    "cluster_partitioned",
    "ClusteringRun",
    "run_horizontal_dbscan",
    "run_vertical_dbscan",
    "run_arbitrary_dbscan",
    "run_enhanced_horizontal_dbscan",
]
