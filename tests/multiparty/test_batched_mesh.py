"""Equivalence tests for the batched k-party mesh (the PR-2 port).

The binding property: the batched k-party protocol must be
*indistinguishable in outcome* from the same mesh running the per-point
reference (``tests/per_point.py``: one Section 4.2 HDP per peer point)
-- bit-identical labels for every party and identical leakage-ledger
disclosure sequences, across random workloads, party counts >= 3, and
both ``blind_cross_sum`` modes.  Only wall-clock, message counts, and
encryption counts may differ.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ProtocolConfig
from repro.core.leakage import Disclosure
from repro.multiparty.horizontal import run_multiparty_horizontal_dbscan
from repro.multiparty.mesh import MeshError, PartyMesh
from repro.smc.session import SmcConfig
from tests.per_point import per_point_queries

points_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=30)),
    min_size=1, max_size=5)


def _config(backend="oracle", *, blind=False, cached=False, min_pts=3,
            key_seed=230):
    return ProtocolConfig(
        eps=1.5, min_pts=min_pts, scale=1,
        smc=SmcConfig(comparison=backend, key_seed=key_seed, mask_sigma=8,
                      paillier_bits=128),
        blind_cross_sum=blind,
        cache_peer_ciphertexts=cached)


def _run(points, *, batched, seeds, **kwargs):
    """``batched=False`` runs the same mesh on the per-point reference."""
    config = _config(**kwargs)
    if batched:
        return run_multiparty_horizontal_dbscan(points, config, seeds=seeds)
    with per_point_queries():
        return run_multiparty_horizontal_dbscan(points, config, seeds=seeds)


class TestBatchedMeshAgainstSeedPath:
    @settings(max_examples=12, deadline=None)
    @given(points_strategy, points_strategy, points_strategy,
           st.integers(min_value=1, max_value=5), st.booleans())
    def test_three_parties_labels_and_ledger_bit_identical(
            self, p0, p1, p2, min_pts, blind):
        points = {"p0": p0, "p1": p1, "p2": p2}
        batched = _run(points, batched=True, seeds=[1, 2, 3],
                       min_pts=min_pts, blind=blind)
        legacy = _run(points, batched=False, seeds=[4, 5, 6],
                      min_pts=min_pts, blind=blind)
        # Bit-identical labels (not merely canonically equal) and the
        # whole disclosure sequence: same events, same order, same
        # labels, same details.
        assert batched.labels_by_party == legacy.labels_by_party
        assert batched.ledger.events == legacy.ledger.events

    @pytest.mark.parametrize("blind", [False, True])
    def test_four_parties(self, blind):
        points = {
            "h0": [(0, 0), (1, 0)],
            "h1": [(0, 1)],
            "h2": [(1, 1), (20, 20)],
            "h3": [(21, 20), (0, 2)],
        }
        batched = _run(points, batched=True, seeds=[1, 2, 3, 4],
                       min_pts=4, blind=blind)
        legacy = _run(points, batched=False, seeds=[1, 2, 3, 4],
                      min_pts=4, blind=blind)
        assert batched.labels_by_party == legacy.labels_by_party
        assert batched.ledger.events == legacy.ledger.events

    @pytest.mark.parametrize("blind", [False, True])
    def test_real_crypto_three_parties(self, blind):
        points = {
            "p0": [(0, 0), (30, 30)],
            "p1": [(1, 0)],
            "p2": [(0, 1), (31, 30)],
        }
        batched = _run(points, backend="bitwise", batched=True,
                       seeds=[1, 2, 3], blind=blind)
        legacy = _run(points, backend="bitwise", batched=False,
                      seeds=[1, 2, 3], blind=blind)
        assert batched.labels_by_party == legacy.labels_by_party
        assert batched.ledger.events == legacy.ledger.events

    def test_empty_party_skipped_in_both_paths(self):
        points = {"p0": [(0, 0), (1, 0), (0, 1)], "p1": [], "p2": [(1, 1)]}
        batched = _run(points, batched=True, seeds=[1, 2, 3])
        legacy = _run(points, batched=False, seeds=[1, 2, 3])
        assert batched.labels_by_party == legacy.labels_by_party
        assert batched.ledger.events == legacy.ledger.events


class TestBatchedComparisonsMesh:
    """PR-3 tentpole at mesh level: amortized DGK batches inside every
    per-peer region query vs one comparison per peer point, same coins."""

    @settings(max_examples=8, deadline=None)
    @given(points_strategy, points_strategy, points_strategy,
           st.integers(min_value=1, max_value=5), st.booleans())
    def test_labels_and_ledger_bit_identical(self, p0, p1, p2, min_pts,
                                             blind):
        points = {"p0": p0, "p1": p1, "p2": p2}
        amortized = _run(points, batched=True, seeds=[1, 2, 3],
                         min_pts=min_pts, blind=blind)
        per_point = _run(points, batched=False, seeds=[1, 2, 3],
                         min_pts=min_pts, blind=blind)
        assert amortized.labels_by_party == per_point.labels_by_party
        assert amortized.ledger.events == per_point.ledger.events
        assert amortized.comparisons == per_point.comparisons

    @pytest.mark.parametrize("blind", [False, True])
    def test_real_crypto_three_parties(self, blind):
        points = {
            "p0": [(0, 0), (30, 30)],
            "p1": [(1, 0), (2, 0)],
            "p2": [(0, 1), (31, 30)],
        }
        amortized = _run(points, backend="bitwise", batched=True,
                         seeds=[1, 2, 3], blind=blind)
        per_point = _run(points, backend="bitwise", batched=False,
                         seeds=[1, 2, 3], blind=blind)
        assert amortized.labels_by_party == per_point.labels_by_party
        assert amortized.ledger.events == per_point.ledger.events
        assert amortized.comparisons == per_point.comparisons
        if not blind:
            # Constant thresholds: one DGK round-trip per region query
            # instead of one per peer point, so strictly fewer messages.
            # (Blinded thresholds are per-point random, so the comparison
            # batch degrades to per-point runs.)
            assert amortized.stats["total_messages"] \
                < per_point.stats["total_messages"]


class TestCachedMesh:
    def test_cached_mesh_matches_uncached_labels(self):
        points = {"p0": [(0, 0), (2, 0)], "p1": [(1, 0)], "p2": [(0, 1)]}
        cached = _run(points, batched=True, cached=True, seeds=[1, 2, 3])
        plain = _run(points, batched=True, seeds=[1, 2, 3])
        assert cached.labels_by_party == plain.labels_by_party
        # The cached path discloses linkable ids on hits; the plain
        # batched path never does.
        assert cached.ledger.count(Disclosure.LINKED_NEIGHBOR_ID) > 0
        assert plain.ledger.count(Disclosure.LINKED_NEIGHBOR_ID) == 0

    def test_cached_per_point_path_matches_cached_batched(self):
        points = {"p0": [(0, 0), (2, 0)], "p1": [(1, 0)], "p2": [(0, 1)]}
        batched = _run(points, batched=True, cached=True, seeds=[1, 2, 3])
        per_point = _run(points, batched=False, cached=True,
                         seeds=[1, 2, 3])
        assert batched.labels_by_party == per_point.labels_by_party
        assert batched.ledger.events == per_point.ledger.events


class TestMeshOfflinePhase:
    def test_prefilled_mesh_is_miss_free_and_label_identical(self):
        """The mesh offline/online contract: prefill by a probe run's
        consumption, then the online run never misses a pool."""
        points = {"p0": [(0, 0), (1, 1)], "p1": [(1, 0)], "p2": [(0, 1)]}
        config = _config(backend="bitwise")

        probe_mesh = PartyMesh(list(points), config.smc, seeds=[1, 2, 3])
        probe = run_multiparty_horizontal_dbscan(points, config,
                                                 mesh=probe_mesh)
        plan = {pair: {key: entry["consumed"]
                       for key, entry in report.items()}
                for pair, report in probe_mesh.pool_report().items()}
        assert sum(sum(p.values()) for p in plan.values()) > 0

        online_mesh = PartyMesh(list(points), config.smc, seeds=[1, 2, 3])
        online_mesh.precompute_pools(plan)
        online = run_multiparty_horizontal_dbscan(points, config,
                                                  mesh=online_mesh)
        # Prefilling reorders RNG draws, so permutations differ; labels
        # cannot (the predicate bits are exact).
        assert online.labels_by_party == probe.labels_by_party
        for report in online_mesh.pool_report().values():
            assert all(entry["misses"] == 0 for entry in report.values())

    def test_mesh_party_mismatch_rejected(self):
        points = {"p0": [(0, 0)], "p1": [(1, 0)]}
        mesh = PartyMesh(["a", "b"], _config().smc)
        with pytest.raises(MeshError, match="do not match"):
            run_multiparty_horizontal_dbscan(points, _config(), mesh=mesh)
