import math

import numpy as np
import pytest

from phases.graphon import ConstraintVector, FiniteGraph, SubgraphPattern, finite_density
from phases.optimizer import reference_construction
from phases.sampler import (
    ChainConfig,
    SamplerInitError,
    _DensityTracker,
    _count_denominator,
    _count_window,
    _sample_from_graphon,
    enumerate_Z,
    estimate_block_structure,
    sample_constrained,
)

EDGE = SubgraphPattern.edge()
TRI = SubgraphPattern.triangle()


def edge_only(target, delta):
    return ConstraintVector(((EDGE, target),), delta)


class TestChainConfig:
    def test_needs_positive_delta(self):
        with pytest.raises(ValueError, match="delta"):
            ChainConfig(n=10, constraints=edge_only(0.5, 0.0))

    def test_needs_min_size(self):
        with pytest.raises(ValueError, match="n >= 4"):
            ChainConfig(n=3, constraints=edge_only(0.5, 0.1))

    def test_default_schedule(self):
        cfg = ChainConfig(n=10, constraints=edge_only(0.5, 0.1))
        assert cfg.burn_in_steps == 5000
        assert cfg.interval_steps == 100


class TestSampleConstrained:
    def test_confinement(self):
        cfg = ChainConfig(n=30, constraints=edge_only(0.5, 0.05), seed=3, n_samples=6)
        run = sample_constrained(cfg)
        assert len(run) == 6
        for g, dens in zip(run, run.densities):
            d = float(finite_density(g, EDGE))
            assert 0.45 < d < 0.55
            assert d == pytest.approx(dens[0], abs=1e-12)
        assert not run.stalled

    def test_determinism(self):
        cfg = ChainConfig(n=20, constraints=edge_only(0.4, 0.05), seed=9, n_samples=3)
        r1 = sample_constrained(cfg)
        r2 = sample_constrained(cfg)
        for g1, g2 in zip(r1, r2):
            assert np.array_equal(g1.adjacency, g2.adjacency)

    def test_er_point_matches_independent_gnp(self, rng):
        # at (eps, eps^3) the constrained ensemble should look Erdos-Renyi:
        # compare triangle densities from independent chains against an
        # independent G(n, eps) Monte Carlo reference.  The uniform window
        # ensemble at fixed delta concentrates at the window's entropy
        # supremum, an O(delta) shift off the center, so consistency holds at
        # the per-draw fluctuation scale (3 pooled standard deviations)
        n, eps = 100, 0.3
        chain_tris = []
        for seed in range(6):
            cfg = ChainConfig(
                n=n,
                constraints=ConstraintVector.edge_triangle(eps, eps**3, 0.01),
                seed=100 + seed,
                burn_in=15 * n * n,
                sample_interval=5 * n * n,
                n_samples=2,
            )
            run = sample_constrained(cfg)
            chain_tris.extend(run.densities[:, 1].tolist())
        chain_tris = np.array(chain_tris)
        ref = []
        for _ in range(200):
            a = (rng.random((n, n)) < eps).astype(np.int64)
            a = np.triu(a, 1)
            a = a + a.T
            tri6 = np.trace(a @ a @ a)
            ref.append(tri6 / (n * (n - 1) * (n - 2)))
        ref = np.array(ref)
        pooled_sd = math.sqrt(ref.var() + chain_tris.var())
        assert abs(chain_tris.mean() - ref.mean()) < 3 * pooled_sd

    def test_chain_concentrates_at_window_entropy_sup(self):
        # large-deviations cross-validation: the uniform ensemble on the
        # window [0.49,0.51] x [0.09,0.11] concentrates where the constrained
        # entropy is largest over the window, which the optimizer locates at
        # the corner (0.49, 0.11); the chain should drift there
        n = 150
        cfg = ChainConfig(
            n=n,
            constraints=ConstraintVector.edge_triangle(0.5, 0.1, 0.01),
            seed=5,
            burn_in=60 * n * n,
            sample_interval=n * n,
            n_samples=3,
        )
        run = sample_constrained(cfg)
        final = run.densities[-1]
        assert abs(final[0] - 0.49) < 0.004
        assert abs(final[1] - 0.11) < 0.004

    def test_window_edges_are_excluded(self):
        # the windows are open: at n = 5 the edge window (0.2, 0.4) holds only
        # graphs with 3 of 10 edges.  2 edges sit exactly on the lower edge,
        # which a float test |d - t| < delta admits (0.3 - 0.2 < 0.1 in
        # floats); the chain must retain none, as enumerate_Z counts none
        cons = edge_only(0.3, 0.1)
        rep = enumerate_Z(5, cons)
        assert rep.z == sum(c for e, _t, c in rep.histogram if e == 3)
        cfg = ChainConfig(
            n=5, constraints=cons, seed=11, burn_in=100, sample_interval=5,
            n_samples=200,
        )
        run = sample_constrained(cfg)
        assert {g.edge_count for g in run} == {3}
        # counts exactly on an edge of the (0.5, 0.1), delta = 0.01 windows
        # that chains retained under the float test, each against its
        # neighbour just inside
        for n, pat, target, on_edge, inside in (
            (150, TRI, 0.1, 60643, 60642),  # 0.11 C(150,3)
            (200, TRI, 0.1, 144474, 144473),  # 0.11 C(200,3)
            (200, EDGE, 0.5, 9751, 9752),  # 0.49 C(200,2)
        ):
            lo, hi = _count_window(target, 0.01, _count_denominator(pat, n))
            assert not lo <= on_edge <= hi
            assert lo <= inside <= hi

    def test_init_failure_is_explicit(self):
        # an empty window that greedy repair cannot reach
        cons = ConstraintVector(((EDGE, 0.5), (TRI, 0.9)), 0.001)
        with pytest.raises(SamplerInitError):
            sample_constrained(ChainConfig(n=12, constraints=cons, seed=1, n_samples=1))

    def test_only_counted_kinds_scale_past_the_generic_cap(self):
        # edge, triangle and k-star counts are updated per toggle; any other
        # pattern, the signed 2-star included, is recounted and capped in n
        adj = np.zeros((31, 31), dtype=np.int8)
        star = ConstraintVector(((SubgraphPattern.star(3), 0.1),), 0.05)
        assert _DensityTracker(adj, star).kinds == [("star", 3)]
        for pat in (SubgraphPattern.cycle(4), SubgraphPattern.signed_two_star()):
            with pytest.raises(ValueError, match="n <= 30"):
                _DensityTracker(adj, ConstraintVector(((pat, 0.1),), 0.05))
        tracker = _DensityTracker(adj[:5, :5], ConstraintVector(
            ((SubgraphPattern.signed_two_star(), 0.1),), 0.05))
        assert tracker.kinds == [("generic", 0)]


class TestBlockEstimation:
    def test_round_trip_bipodal(self, rng):
        q = reference_construction(0.5, 0.1)
        adj = _sample_from_graphon(q, 200, rng)
        est = estimate_block_structure(FiniteGraph(adj), 2, seed=5)
        got = sorted([est.graphon.values[0, 0], est.graphon.values[1, 1]])
        assert abs(got[0] - q.values[0, 0]) < 0.05
        assert abs(got[1] - q.values[0, 0]) < 0.05
        assert abs(est.graphon.values[0, 1] - q.values[0, 1]) < 0.05

    def test_recovery_improves_with_n(self, rng):
        q = reference_construction(0.5, 0.1)
        errs = {}
        for n in (50, 200):
            adj = _sample_from_graphon(q, n, rng)
            est = estimate_block_structure(FiniteGraph(adj), 2, seed=5)
            diag = sorted([est.graphon.values[0, 0], est.graphon.values[1, 1]])
            errs[n] = max(
                abs(diag[0] - 0.20759822617871343),
                abs(diag[1] - 0.20759822617871343),
                abs(est.graphon.values[0, 1] - 0.7924017738212865),
            )
        assert errs[200] < errs[50] + 0.01

    def test_complete_graph_all_ones(self):
        est = estimate_block_structure(FiniteGraph.complete(8), 3, seed=0)
        assert np.all(est.graphon.values == 1.0)

    def test_single_cluster_is_edge_density(self):
        g = FiniteGraph.cycle(10)
        est = estimate_block_structure(g, 1)
        assert est.graphon.m == 1
        assert est.graphon.values[0, 0] == pytest.approx(
            float(finite_density(g, EDGE)), abs=1e-12
        )

    def test_m_validation(self):
        g = FiniteGraph.complete(5)
        with pytest.raises(ValueError):
            estimate_block_structure(g, 9)
        with pytest.raises(ValueError):
            estimate_block_structure(g, 6)


class TestEnumeration:
    def test_forced_complete_graph(self):
        rep = enumerate_Z(3, edge_only(1.0, 0.1))
        assert rep.z == 1

    def test_half_density_window_n4(self):
        rep = enumerate_Z(4, edge_only(0.5, 0.1))
        assert rep.z == 20  # binomial(6, 3): graphs with exactly 3 edges

    def test_no_constraints_counts_everything(self):
        rep = enumerate_Z(5, ConstraintVector((), 0.0))
        assert rep.z == rep.total == 1024

    def test_histogram_covers_everything(self):
        rep = enumerate_Z(5, edge_only(0.5, 0.2))
        assert sum(c for _, _, c in rep.histogram) == rep.total

    def test_log_bound(self):
        rep = enumerate_Z(6, ConstraintVector((), 0.0))
        assert rep.log_normalized <= math.log(2) / 2

    def test_star_constraint_matches_generic(self):
        # 2-star density window checked via the degree fast path and via the
        # generic mask path must agree
        star = SubgraphPattern.star(2)
        fast = enumerate_Z(5, ConstraintVector(((star, 0.3),), 0.1))
        generic_pattern = SubgraphPattern(3, ((1, 2), (1, 3)))
        assert generic_pattern == star  # same normalized pattern
        # compare against brute force over all graphs; the window bounds are
        # decimal-exact (0.3 means 3/10), so the oracle must use Fractions too
        from fractions import Fraction
        import itertools

        count = 0
        pairs = list(itertools.combinations(range(5), 2))
        for mask in range(1 << 10):
            edges = [pairs[b] for b in range(10) if mask >> b & 1]
            g = FiniteGraph.from_edges(5, edges)
            d = finite_density(g, star)
            if abs(d - Fraction(3, 10)) < Fraction(1, 10):
                count += 1
        assert fast.z == count

    def test_signed_pattern_rejected(self):
        cons = ConstraintVector(((SubgraphPattern.signed_two_star(), 0.2),), 0.1)
        with pytest.raises(ValueError, match="all-present"):
            enumerate_Z(4, cons)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            enumerate_Z(8, edge_only(0.5, 0.1))

    def test_trend_toward_window_supremum(self):
        # with a fixed window the normalized log-count converges to the
        # supremum of the entropy over the window; the window around
        # (0.5, 0.1) with delta 0.05 contains the ER point (0.5, 0.125), so
        # the supremum is log(2)/2
        sup = math.log(2) / 2
        gaps = []
        for n in (6, 7):
            rep = enumerate_Z(n, ConstraintVector.edge_triangle(0.5, 0.1, 0.05))
            gaps.append(abs(rep.log_normalized - sup))
        assert gaps[1] < gaps[0]
