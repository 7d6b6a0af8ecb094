"""A deployment-size key end to end: one 1024-bit mesh3 session.

The layered benchmark runs 256-bit keys so that a full check fits its
time budget; this weekly test keeps a realistic key size from rotting.
It deals the benchmark's mesh3 plan -- three parties holding (2, 1, 0),
(2, 0, 1) and (1, 1, 1) points from the three blobs of the ``blobs``
standard workload -- runs one in-process session at 1024 bits, checks
every party's labels against ``union_density_dbscan``, and checks that
messages, rounds and comparisons equal a 256-bit run of the same plan:
the key size changes the ciphertexts, never the protocol's shape.
"""

import pytest

from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.data.workloads import standard_workload
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh
from repro.smc.session import SmcConfig

SEED = 1
BLOB_CENTERS = ((0, 0), (600, 600), (0, 600))
PLAN = ((2, 1, 0), (2, 0, 1), (1, 1, 1))
# Points this close to their blob centre are within eps (1.2 on the
# scale-100 grid) of every other such point of the blob, and far from
# every other blob, so the plan fixes the control flow.
CORE_RADIUS = 50


def _deal():
    source = standard_workload("blobs", seed=SEED, size="large")
    members = [[] for _ in BLOB_CENTERS]
    for point in source.points:
        distances = [sum((a - b) ** 2 for a, b in zip(point, centre))
                     for centre in BLOB_CENTERS]
        blob = distances.index(min(distances))
        if distances[blob] <= CORE_RADIUS ** 2:
            members[blob].append(tuple(point))
    points = {f"party{slot}": [members[blob].pop()
                               for blob, count in enumerate(counts)
                               for _ in range(count)]
              for slot, counts in enumerate(PLAN)}
    return source, points


def _session(key_bits: int):
    source, points = _deal()
    config = ProtocolConfig(
        eps=source.eps, min_pts=source.min_pts, scale=100,
        smc=SmcConfig(paillier_bits=key_bits, key_seed=SEED))
    seeds = [SEED * 1_000_003 + slot for slot in range(len(PLAN))]
    mesh = PartyMesh(list(points), config.smc, seeds=seeds,
                     rng_namespace=f"key-sizes-{key_bits}")
    result = run_multiparty_horizontal_dbscan(points, config, seeds=seeds,
                                              mesh=mesh)
    return config, points, result


@pytest.mark.slow
def test_1024_bit_mesh3_session_matches_reference_and_shape():
    config, points, result = _session(1024)
    for name, own in points.items():
        others = [point for other, theirs in points.items()
                  if other != name for point in theirs]
        reference = union_density_dbscan(own, others, config.eps_squared,
                                         config.min_pts)
        assert tuple(result.labels_by_party[name]) \
            == reference.labels.as_tuple(), name
    _, _, small = _session(256)
    assert (result.stats["total_messages"], result.stats["rounds"],
            result.comparisons) \
        == (small.stats["total_messages"], small.stats["rounds"],
            small.comparisons)
    assert result.stats["total_bytes"] > small.stats["total_bytes"]
