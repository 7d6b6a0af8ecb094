"""Order-free density tests: every point's count first, then expansion.

A point's secure count depends only on the point, never on when the
expansion asks for it.  So each pass asks one query per (own point,
peer) and expands its clusters locally over the counts.  The labels
must equal both the plaintext model and a traversal that asks each
density test as it reaches it -- which is what the protocol did before,
and which asked a noise seed a second time when a later core point's
expansion queued it.  Now every point takes exactly one test, so the
message count is exact: k(k-1) for the key exchange plus five per
region query, (k-1) queries per point.
"""

from collections import deque

from hypothesis import assume, example, given, settings, strategies as st

from repro.clustering.labels import (
    NOISE,
    UNCLASSIFIED,
    ClusterLabels,
    next_cluster_id,
)
from repro.clustering.neighborhoods import BruteForceIndex, squared_distance
from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.core.leakage import Disclosure
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import PartyMesh
from repro.multiparty.scheduler import PassExecutor
from repro.smc.session import SmcConfig

# Two to four parties, any of which may hold no points.
parties_strategy = st.integers(min_value=2, max_value=4).flatmap(
    lambda k: st.lists(st.lists(
        st.tuples(st.integers(min_value=0, max_value=12),
                  st.integers(min_value=0, max_value=12)),
        min_size=0, max_size=5), min_size=k, max_size=k))

#: party0's first point is noise on its own test, then a seed of the
#: core point next to it: a serial traversal tests it twice.
RETESTED_NOISE_SEED = {
    "p0": [(0, 0), (10, 0)],
    "p1": [(20, 0)],
    "p2": [(100, 100)],
}


#: party0's expansion reaches its point 2 before the outer loop reaches
#: its point 1, so the traversal's first tests are not in point order.
OUT_OF_POINT_ORDER = {
    "p0": [(0, 0), (100, 100), (10, 0)],
    "p1": [(5, 0)],
    "p2": [(200, 200)],
}


def _config(backend="oracle", *, eps=1.5, scale=1, min_pts=3,
            **overrides) -> ProtocolConfig:
    return ProtocolConfig(
        eps=eps, min_pts=min_pts, scale=scale,
        smc=SmcConfig(comparison=backend, key_seed=250, mask_sigma=8,
                      paillier_bits=128),
        **overrides)


def _others(points_by_party, name):
    return [point for other, points in points_by_party.items()
            if other != name for point in points]


def serial_traversal(own, others, eps_squared, min_pts):
    """Algorithm 3/4 asking each density test as it reaches it.

    Returns the labels and the number of tests asked (T_p), counting a
    point again each time the traversal tests it again.
    """
    index = BruteForceIndex(own)
    asked = []

    def dense(point_index, neighbours):
        asked.append(point_index)
        peers = sum(squared_distance(own[point_index], other) <= eps_squared
                    for other in others)
        return len(neighbours) + peers >= min_pts

    labels = ClusterLabels(len(own))
    cluster_id = next_cluster_id(NOISE)
    for point_index in range(len(own)):
        if not labels.is_unclassified(point_index):
            continue
        seeds = index.region_query(index.points[point_index], eps_squared)
        if not dense(point_index, seeds):
            labels.change_cluster_id(point_index, NOISE)
            continue
        labels.change_cluster_ids(seeds, cluster_id)
        queue = deque(s for s in seeds if s != point_index)
        while queue:
            current = queue.popleft()
            result = index.region_query(index.points[current], eps_squared)
            if dense(current, result):
                for neighbor in result:
                    if labels[neighbor] in (UNCLASSIFIED, NOISE):
                        if labels[neighbor] == UNCLASSIFIED:
                            queue.append(neighbor)
                        labels.change_cluster_id(neighbor, cluster_id)
        cluster_id = next_cluster_id(cluster_id)
    return labels.as_tuple(), len(asked)


def region_queries(points_by_party) -> int:
    """One query per (own point, peer holding points)."""
    return sum(
        len(own) * sum(1 for other, theirs in points_by_party.items()
                       if other != name and theirs)
        for name, own in points_by_party.items())


class TestOrderFreeLabels:
    @settings(max_examples=40, deadline=None)
    @given(parties_strategy, st.integers(min_value=1, max_value=5))
    @example([[(0, 0), (1, 0)], [(2, 0)], [], [(9, 9)]], 3)
    def test_labels_equal_model_and_serial_traversal(self, parties,
                                                     min_pts):
        assume(any(parties))
        points = {f"p{index}": own for index, own in enumerate(parties)}
        config = _config(min_pts=min_pts)
        result = run_multiparty_horizontal_dbscan(
            points, config, seeds=list(range(1, len(points) + 1)))
        for name, own in points.items():
            others = _others(points, name)
            model = union_density_dbscan(own, others, config.eps_squared,
                                         min_pts)
            serial, _ = serial_traversal(own, others, config.eps_squared,
                                         min_pts)
            assert result.labels_by_party[name] \
                == model.labels.as_tuple() == serial, name
        # One count disclosure per query: each point is tested once.
        assert result.ledger.count(Disclosure.NEIGHBOR_COUNT) \
            == region_queries(points)


class TestRetestedNoiseSeed:
    """The data set on which a serial traversal tests a noise seed
    twice; every point now takes exactly one test."""

    def test_serial_traversal_retests_a_point_here(self):
        config = _config(eps=1.0, scale=10)
        own, others = RETESTED_NOISE_SEED["p0"], _others(
            RETESTED_NOISE_SEED, "p0")
        labels, asked = serial_traversal(own, others, config.eps_squared,
                                         config.min_pts)
        assert labels == (1, 1)
        assert asked == 3 > len(own)

    def test_messages_count_one_test_per_point(self):
        config = _config("bitwise", eps=1.0, scale=10)
        mesh = PartyMesh(list(RETESTED_NOISE_SEED), config.smc,
                         seeds=[31, 32, 33])
        result = run_multiparty_horizontal_dbscan(
            RETESTED_NOISE_SEED, config, mesh=mesh)
        assert result.labels_by_party == {"p0": (1, 1), "p1": (-1,),
                                          "p2": (-1,)}
        k, points = 3, sum(map(len, RETESTED_NOISE_SEED.values()))
        assert region_queries(RETESTED_NOISE_SEED) == (k - 1) * points
        assert result.stats["total_messages"] \
            == k * (k - 1) + 5 * (k - 1) * points == 46
        # Each own point is queried exactly once per peer.
        assert sorted(
            (stream.driver, stream.query)
            for streams in mesh._streams.values()
            for stream in streams.values()) == sorted(
            (name, query) for name, own in RETESTED_NOISE_SEED.items()
            for query in range(len(own)) for _ in range(k - 1))

    def test_a_retest_asks_no_peer_again(self, monkeypatch):
        """In process every density test of the traversal goes through
        the pass's executor -- p0 tests its point 0, its point 1, then
        its point 0 again -- but each (point, peer) query runs once."""
        asked = []
        run_pass = PassExecutor.run_pass

        def recording(executor, tasks):
            asked.append([task.query for task in tasks])
            return run_pass(executor, tasks)

        monkeypatch.setattr(PassExecutor, "run_pass", recording)
        config = _config("bitwise", eps=1.0, scale=10)
        result = run_multiparty_horizontal_dbscan(
            RETESTED_NOISE_SEED, config, seeds=[31, 32, 33])
        _, serial = serial_traversal(
            RETESTED_NOISE_SEED["p0"], _others(RETESTED_NOISE_SEED, "p0"),
            config.eps_squared, config.min_pts)
        assert asked[:serial] == [[0, 0], [1, 1], [0, 0]]
        assert len(asked) == serial + 2
        # Ten tasks in five tests, eight queries: one per (point, peer).
        assert result.ledger.count(Disclosure.NEIGHBOR_COUNT) \
            == region_queries(RETESTED_NOISE_SEED) == 8
        assert result.stats["total_messages"] == 3 * 2 + 5 * 8


class TestOutOfPointOrder:
    def test_first_tests_follow_the_traversal(self):
        """The traversal reaches p0's point 2 before its point 1, and the
        in-process pass asks them in that order; the labels are the
        model's."""
        config = _config("bitwise", eps=1.0, scale=10)
        mesh = PartyMesh(list(OUT_OF_POINT_ORDER), config.smc,
                         seeds=[31, 32, 33])
        result = run_multiparty_horizontal_dbscan(
            OUT_OF_POINT_ORDER, config, mesh=mesh)
        assert [query for driver, query in mesh._streams[("p0", "p1")]
                if driver == "p0"] == [0, 2, 1]
        for name, own in OUT_OF_POINT_ORDER.items():
            model = union_density_dbscan(
                own, _others(OUT_OF_POINT_ORDER, name), config.eps_squared,
                config.min_pts)
            assert result.labels_by_party[name] == model.labels.as_tuple()
        assert result.labels_by_party["p0"] == (1, -1, 1)
