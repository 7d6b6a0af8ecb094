"""repro -- Privacy Preserving Distributed DBSCAN Clustering.

A from-scratch reproduction of Liu, Xiong, Luo, Huang, "Privacy
Preserving Distributed DBSCAN Clustering" (EDBT/ICDT Workshops 2012;
extended in Transactions on Data Privacy 6, 2013).

Quickstart::

    import random
    from repro import ProtocolConfig, cluster_partitioned
    from repro.data import partition_horizontal, Dataset, gaussian_blobs

    points = gaussian_blobs(random.Random(0),
                            centers=[(0, 0), (5, 5)], points_per_blob=12)
    partition = partition_horizontal(Dataset.from_points(points), 12)
    run = cluster_partitioned(partition,
                              ProtocolConfig(eps=1.0, min_pts=4))
    print(run.alice_labels, run.bob_labels)

See DESIGN.md for the system inventory.  The paper-vs-measured record
is the experiment tables under ``benchmarks/results/``, each written by
the ``benchmarks/test_e*.py`` module whose docstring says what it
measures against the paper.
"""

from repro.core.api import ClusteringRun, cluster_partitioned
from repro.core.config import ProtocolConfig
from repro.smc.session import SmcConfig

__version__ = "1.0.0"

__all__ = [
    "ClusteringRun",
    "cluster_partitioned",
    "ProtocolConfig",
    "SmcConfig",
    "__version__",
]
