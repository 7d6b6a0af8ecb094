"""Deployment-size keys end to end: one 1024-bit mesh3 session and one
1024-bit enhanced2 session.

The layered benchmark runs 256-bit keys so that a full check fits its
time budget; these tier-1 tests (a few seconds, fixed-base factor tables
included) keep a realistic key size from rotting on every push.  Each
deals a benchmark plan from the three blobs of the ``blobs`` standard
workload -- mesh3: three parties holding (2, 1, 0), (2, 0, 1) and
(1, 1, 1) points; enhanced2, the Section 5 protocol: two parties
holding (2, 1, 1) each -- runs one in-process session at 1024 bits,
checks every party's labels against ``union_density_dbscan``, and
checks that messages, rounds and comparisons equal a 256-bit run of the
same plan: the key size changes the ciphertexts, never the protocol's
shape.  At 1024 bits a reply ciphertext packs 24 or more values, so
every region query and every Section 5 alpha opens one ciphertext.
"""

from collections import Counter

from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.core.enhanced import run_enhanced_horizontal_dbscan
from repro.data.partitioning import HorizontalPartition
from repro.data.workloads import standard_workload
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh
from repro.net.channel import Channel
from repro.net.party import make_party_pair
from repro.smc.session import SmcConfig, SmcSession

SEED = 1
BLOB_CENTERS = ((0, 0), (600, 600), (0, 600))
MESH3_PLAN = ((2, 1, 0), (2, 0, 1), (1, 1, 1))
ENHANCED2_PLAN = ((2, 1, 1), (2, 1, 1))
# Points this close to their blob centre are within eps (1.2 on the
# scale-100 grid) of every other such point of the blob, and far from
# every other blob, so the plan fixes the control flow.
CORE_RADIUS = 50


def _deal(plan):
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
              for slot, counts in enumerate(plan)}
    return source, points


def _config(source, key_bits: int) -> ProtocolConfig:
    return ProtocolConfig(
        eps=source.eps, min_pts=source.min_pts, scale=100,
        smc=SmcConfig(paillier_bits=key_bits, key_seed=SEED),
        alice_seed=SEED * 1_000_003, bob_seed=SEED * 1_000_003 + 1)


def _assert_reference_labels(points, labels, config) -> None:
    for name, own in points.items():
        others = [point for other, theirs in points.items()
                  if other != name for point in theirs]
        reference = union_density_dbscan(own, others, config.eps_squared,
                                         config.min_pts)
        assert tuple(labels[name]) == reference.labels.as_tuple(), name


def _mesh_session(key_bits: int):
    source, points = _deal(MESH3_PLAN)
    config = _config(source, key_bits)
    seeds = [SEED * 1_000_003 + slot for slot in range(len(MESH3_PLAN))]
    mesh = PartyMesh(list(points), config.smc, seeds=seeds,
                     rng_namespace=f"key-sizes-{key_bits}")
    result = run_multiparty_horizontal_dbscan(points, config, seeds=seeds,
                                              mesh=mesh)
    return config, points, mesh, result


def _enhanced_session(key_bits: int):
    source, points = _deal(ENHANCED2_PLAN)
    config = _config(source, key_bits)
    channel = Channel()
    session = SmcSession(*make_party_pair(channel, config.alice_seed,
                                          config.bob_seed), config.smc)
    result = run_enhanced_horizontal_dbscan(
        HorizontalPartition(alice_points=tuple(points["party0"]),
                            bob_points=tuple(points["party1"])),
        config, session=session)
    return config, points, channel, session, result


def test_1024_bit_mesh3_session_matches_reference_and_shape(key_work):
    config, points, mesh, result = _mesh_session(1024)
    decrypts, factors = list(key_work["decrypt"]), list(key_work["factors"])
    _assert_reference_labels(points, result.labels_by_party, config)
    # Each party drives one query per own point and peer (3 x 2), opens
    # each query's packed reply once, and its key carries 2 coordinate
    # encryptions and one reply factor per query.
    keys = [mesh.session_between(name, mesh.peers_of(name)[0])
            .paillier_keys(name).public_key.n for name in points]
    assert Counter(decrypts) == {(n, 1): 6 for n in keys}
    assert Counter(factors) == {n: 6 * (2 + 1) for n in keys}
    _, _, _, small = _mesh_session(256)
    assert (result.stats["total_messages"], result.stats["rounds"],
            result.comparisons) \
        == (small.stats["total_messages"], small.stats["rounds"],
            small.comparisons)
    assert result.stats["total_bytes"] > small.stats["total_bytes"]


def test_1024_bit_enhanced2_session_matches_reference_and_shape(key_work):
    config, points, channel, session, result = _enhanced_session(1024)
    decrypts = list(key_work["decrypt"])
    _assert_reference_labels(
        points, {"party0": result.alice_labels,
                 "party1": result.bob_labels}, config)
    # Every alpha's masked products -- the 4 peer points -- come back in
    # one reply ciphertext, decrypted once: one batch per pass.
    alphas = {name: len(channel.transcript.with_label(
        f"enhanced/{name}_pass/share/encrypted_alpha"))
        for name in ("alice", "bob")}
    assert all(alphas.values()), alphas
    assert all(len(entry.value) == 1
               for entry in channel.transcript.entries
               if entry.label.endswith("/share/masked_products"))
    assert decrypts == [
        (session.paillier_keys(name).public_key.n, count)
        for name, count in alphas.items()]
    _, _, _, _, small = _enhanced_session(256)
    assert (result.stats["total_messages"], result.stats["rounds"],
            result.comparisons) \
        == (small.stats["total_messages"], small.stats["rounds"],
            small.comparisons)
    assert result.stats["total_bytes"] > small.stats["total_bytes"]
