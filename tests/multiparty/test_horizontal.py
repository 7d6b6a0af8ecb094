"""Tests for the k-party horizontal protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.labels import canonicalize
from repro.clustering.union_density import union_density_dbscan
from repro.core.config import ProtocolConfig
from repro.core.horizontal import run_horizontal_dbscan
from repro.core.leakage import Disclosure
from repro.data.partitioning import HorizontalPartition
from repro.multiparty.horizontal import (
    MultipartyRunResult,
    run_multiparty_horizontal_dbscan,
)
from repro.multiparty.mesh import MeshError, PartyMesh
from repro.runtime.orchestrator import (
    orchestrate_run,
    verify_against_in_process,
)
from repro.smc.session import SmcConfig


def _config(backend="oracle", **kwargs) -> ProtocolConfig:
    defaults = dict(eps=1.5, min_pts=3, scale=1,
                    smc=SmcConfig(comparison=backend, key_seed=210,
                                  mask_sigma=8, paillier_bits=128))
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


def _assert_matches_reference(points_by_party, config, result):
    for name, own in points_by_party.items():
        others = [p for other, pts in points_by_party.items()
                  if other != name for p in pts]
        reference = union_density_dbscan(list(own), others,
                                         config.eps_squared, config.min_pts)
        assert canonicalize(result.labels_by_party[name]) \
            == canonicalize(reference.labels.as_tuple()), name


points_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=30)),
    min_size=1, max_size=6)


class TestAgainstReference:
    @settings(max_examples=15, deadline=None)
    @given(points_strategy, points_strategy, points_strategy,
           st.integers(min_value=1, max_value=5))
    def test_three_parties_random(self, p0, p1, p2, min_pts):
        points = {"p0": p0, "p1": p1, "p2": p2}
        config = _config(min_pts=min_pts)
        result = run_multiparty_horizontal_dbscan(points, config,
                                                  seeds=[1, 2, 3])
        _assert_matches_reference(points, config, result)

    def test_four_parties(self):
        points = {
            "h0": [(0, 0), (1, 0)],
            "h1": [(0, 1)],
            "h2": [(1, 1), (20, 20)],
            "h3": [(21, 20), (0, 2)],
        }
        config = _config(min_pts=4)
        result = run_multiparty_horizontal_dbscan(points, config,
                                                  seeds=[1, 2, 3, 4])
        _assert_matches_reference(points, config, result)

    def test_cross_party_density_needs_all_peers(self):
        """A point that is core only when ALL peers' support is counted."""
        points = {
            "p0": [(0, 0)],
            "p1": [(1, 0)],
            "p2": [(0, 1)],
        }
        config = _config(min_pts=3)
        result = run_multiparty_horizontal_dbscan(points, config,
                                                  seeds=[1, 2, 3])
        assert result.labels_by_party["p0"] == (1,)
        # With only one peer's support it would be noise: check the
        # two-party sub-case for contrast.
        sub = run_horizontal_dbscan(
            HorizontalPartition(alice_points=((0, 0),),
                                bob_points=((1, 0),)),
            _config(min_pts=3, alice_seed=1, bob_seed=2))
        assert sub.alice_labels == (-1,)


@pytest.mark.sockets
class TestTwoPartyOnDaemons:
    def test_two_party_run_on_two_daemons_is_bit_identical(self):
        """The two-party protocol is the k = 2 mesh, so two daemons
        named ``alice`` and ``bob`` run it: labels, ledger, comparisons,
        the pair's transcript and stats equal ``run_horizontal_dbscan``
        in process."""
        partition = HorizontalPartition(
            alice_points=((0, 0), (1, 0), (10, 10)),
            bob_points=((0, 1), (10, 11)))
        config = _config("bitwise", min_pts=3, alice_seed=1, bob_seed=2)
        seeds = [config.alice_seed, config.bob_seed]
        mesh = PartyMesh(["alice", "bob"], config.smc, seeds=seeds)
        two_party = run_horizontal_dbscan(partition, config, mesh=mesh)
        by_party = {"alice": list(partition.alice_points),
                    "bob": list(partition.bob_points)}
        run = orchestrate_run(by_party, config, seeds=seeds, deadline_s=120)
        reference = MultipartyRunResult(
            labels_by_party={"alice": two_party.alice_labels,
                             "bob": two_party.bob_labels},
            ledger=two_party.ledger, stats=two_party.stats,
            comparisons=two_party.comparisons)
        checks = verify_against_in_process(run, by_party, config, seeds,
                                           reference=reference, mesh=mesh)
        assert all(checks.values()), checks


class TestDisclosureAndStats:
    def test_per_peer_counts_disclosed(self):
        points = {"p0": [(0, 0)], "p1": [(1, 0)], "p2": [(0, 1)]}
        result = run_multiparty_horizontal_dbscan(points, _config(),
                                                  seeds=[1, 2, 3])
        # Each driver discloses one count per peer per query: 3 drivers
        # x 1 query x 2 peers.
        assert result.ledger.count(Disclosure.NEIGHBOR_COUNT) == 6

    def test_stats_cover_all_pairs(self):
        points = {"p0": [(0, 0)], "p1": [(1, 0)], "p2": [(0, 1)]}
        result = run_multiparty_horizontal_dbscan(points, _config(),
                                                  seeds=[1, 2, 3])
        directions = set(result.stats["bytes_by_direction"])
        assert {"p0->p1", "p1->p0", "p0->p2", "p2->p0",
                "p1->p2", "p2->p1"} <= directions

    def test_validation(self):
        with pytest.raises(MeshError, match="two parties"):
            run_multiparty_horizontal_dbscan({"solo": [(0, 0)]}, _config())

    def test_empty_party_handled(self):
        points = {"p0": [(0, 0), (1, 0), (0, 1)], "p1": []}
        config = _config(min_pts=3)
        result = run_multiparty_horizontal_dbscan(points, config,
                                                  seeds=[1, 2])
        assert result.labels_by_party["p0"] == (1, 1, 1)
        assert result.labels_by_party["p1"] == ()


class TestWithRealCrypto:
    def test_three_parties_bitwise(self):
        points = {
            "p0": [(0, 0), (30, 30)],
            "p1": [(1, 0)],
            "p2": [(0, 1), (31, 30)],
        }
        config = _config(backend="bitwise", min_pts=3)
        result = run_multiparty_horizontal_dbscan(points, config,
                                                  seeds=[1, 2, 3])
        _assert_matches_reference(points, config, result)
        assert result.stats["total_bytes"] > 0
