import math
from fractions import Fraction

import numpy as np
import pytest

from phases.graphon import (
    ConstraintVector,
    FiniteGraph,
    PatternTooLargeError,
    StepGraphon,
    SubgraphPattern,
    blowup,
    canonicalize,
    empirical_graphon,
    finite_density,
    graphon_entropy,
    kstar_density,
    subgraph_density,
)
from conftest import random_step_graphon


class TestTypes:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            StepGraphon([0.5, 0.4], [[0.1, 0.2], [0.2, 0.3]])

    def test_masses_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            StepGraphon([1.2, -0.2], [[0.1, 0.2], [0.2, 0.3]])

    def test_values_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            StepGraphon([0.5, 0.5], [[0.1, 0.9], [0.2, 0.3]])

    def test_values_in_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            StepGraphon([1.0], [[1.5]])

    def test_graphon_immutable(self):
        q = StepGraphon.constant(0.5)
        with pytest.raises(AttributeError):
            q.masses = np.array([1.0])
        with pytest.raises(ValueError):
            q.values[0, 0] = 0.3

    def test_pattern_rejects_loops_and_duplicates(self):
        with pytest.raises(ValueError, match="loop"):
            SubgraphPattern(3, ((1, 1),))
        with pytest.raises(ValueError, match="duplicate"):
            SubgraphPattern(3, ((1, 2), (2, 1)))
        with pytest.raises(ValueError, match="duplicate"):
            SubgraphPattern(3, ((1, 2),), ((2, 1),))

    def test_finite_graph_validation(self):
        with pytest.raises(ValueError, match="loops"):
            FiniteGraph([[1, 0], [0, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            FiniteGraph([[0, 1], [0, 0]])

    def test_constraint_vector_validation(self):
        with pytest.raises(ValueError, match="outside"):
            ConstraintVector(((SubgraphPattern.edge(), 1.5),))
        with pytest.raises(ValueError, match="delta"):
            ConstraintVector((), delta=2.0)


class TestSubgraphDensity:
    def test_triangle_on_constant(self):
        assert subgraph_density(StepGraphon.constant(0.5), SubgraphPattern.triangle()) == pytest.approx(0.125, abs=1e-15)

    def test_bipartite_has_no_triangles(self):
        bip = StepGraphon.bipodal(0.5, 0.0, 0.0, 1.0)
        assert subgraph_density(bip, SubgraphPattern.triangle()) == 0.0
        assert subgraph_density(bip, SubgraphPattern.edge()) == pytest.approx(0.5, abs=1e-15)

    def test_signed_densities_on_constant(self):
        q = StepGraphon.constant(0.5)
        assert subgraph_density(q, SubgraphPattern.signed_two_star()) == pytest.approx(0.25, abs=1e-15)
        assert subgraph_density(q, SubgraphPattern.signed_square()) == pytest.approx(0.0625, abs=1e-15)

    def test_four_cycle_against_grid_quadrature(self, rng):
        # Riemann-sum oracle on a 300x300 grid: t_C4 = trace(Q^4) / N^4
        q = random_step_graphon(rng, 3)
        n_grid = 300
        cum = np.cumsum(q.masses)
        idx = np.minimum(np.searchsorted(cum, (np.arange(n_grid) + 0.5) / n_grid), q.m - 1)
        grid = q.values[np.ix_(idx, idx)]
        quad = np.trace(np.linalg.matrix_power(grid, 4)) / n_grid**4
        exact = subgraph_density(q, SubgraphPattern.cycle(4))
        assert abs(exact - quad) < 1e-3

    def test_constant_power_rule(self, rng):
        # density of an all-present pattern with e edges on constant eps is eps^e
        for pat, e in [
            (SubgraphPattern.triangle(), 3),
            (SubgraphPattern.star(2), 2),
            (SubgraphPattern.cycle(4), 4),
        ]:
            for _ in range(5):
                eps = rng.uniform(0.05, 0.95)
                got = subgraph_density(StepGraphon.constant(eps), pat)
                assert got == pytest.approx(eps**e, rel=1e-12)

    def test_density_bounds(self, rng):
        pats = [
            SubgraphPattern.triangle(),
            SubgraphPattern.signed_square(),
            SubgraphPattern.star(3),
            SubgraphPattern(4, ((1, 2), (3, 4)), ((1, 3),)),
        ]
        for _ in range(20):
            q = random_step_graphon(rng, int(rng.integers(1, 5)))
            for pat in pats:
                val = subgraph_density(q, pat)
                assert 0.0 <= val <= 1.0

    def test_vertex_cap_enforced(self):
        with pytest.raises(PatternTooLargeError):
            subgraph_density(StepGraphon.constant(0.5), SubgraphPattern.complete(7))

    def test_raised_vertex_cap_evaluates_seven_vertices(self):
        q = StepGraphon.constant(0.5)
        assert subgraph_density(q, SubgraphPattern.cycle(7), vertex_cap=7) == 0.5**7

    def test_pattern_beyond_einsum_letters_rejected_whatever_the_cap(self):
        with pytest.raises(PatternTooLargeError):
            subgraph_density(StepGraphon.constant(0.5), SubgraphPattern.cycle(53), vertex_cap=100)


class TestKStar:
    def test_on_er_curve(self):
        # k-star density of a constant graphon is eps^k
        assert kstar_density(StepGraphon.constant(0.3), 2) == pytest.approx(0.09, abs=1e-15)

    def test_one_star_is_edge_density(self, rng):
        for _ in range(5):
            q = random_step_graphon(rng, 3)
            assert kstar_density(q, 1) == pytest.approx(
                subgraph_density(q, SubgraphPattern.edge()), abs=1e-14
            )

    def test_bipartite_closed_form(self):
        # sum_i c_i (sum_j c_j p_ij)^3 = 2 * (1/2) * (1/2)^3 = 1/8, and it must
        # agree with the generic block-assignment sum
        bip = StepGraphon.bipodal(0.5, 0.0, 0.0, 1.0)
        assert kstar_density(bip, 3) == pytest.approx(0.125, abs=1e-15)
        assert kstar_density(bip, 3) == pytest.approx(
            subgraph_density(bip, SubgraphPattern.star(3)), abs=1e-12
        )

    def test_matches_pattern_density(self, rng):
        for k in (1, 2, 3, 4):
            for _ in range(5):
                q = random_step_graphon(rng, int(rng.integers(1, 5)))
                assert abs(
                    kstar_density(q, k) - subgraph_density(q, SubgraphPattern.star(k))
                ) < 1e-12


class TestEntropy:
    def test_maximal_at_half(self):
        assert graphon_entropy(StepGraphon.constant(0.5)) == pytest.approx(
            math.log(2) / 2, abs=1e-15
        )

    def test_zero_one_valued_graphon(self):
        assert graphon_entropy(StepGraphon.bipodal(0.25, 0.0, 1.0, 1.0)) == 0.0

    def test_constant_binary_entropy(self):
        expected = -0.5 * (0.3 * math.log(0.3) + 0.7 * math.log(0.7))
        assert graphon_entropy(StepGraphon.constant(0.3)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.305432, abs=5e-7)

    def test_invariant_under_block_permutation(self, rng):
        q = random_step_graphon(rng, 4)
        perm = rng.permutation(4)
        q2 = StepGraphon(q.masses[perm], q.values[np.ix_(perm, perm)])
        assert graphon_entropy(q2) == pytest.approx(graphon_entropy(q), abs=1e-14)

    def test_invariant_under_refinement(self, rng):
        q = random_step_graphon(rng, 3)
        c = np.array([q.masses[0] / 2, q.masses[0] / 2, q.masses[1], q.masses[2]])
        idx = [0, 0, 1, 2]
        p = q.values[np.ix_(idx, idx)]
        q_ref = StepGraphon(c, p)
        assert graphon_entropy(q_ref) == pytest.approx(graphon_entropy(q), abs=1e-14)
        for pat in (SubgraphPattern.edge(), SubgraphPattern.triangle()):
            assert subgraph_density(q_ref, pat) == pytest.approx(
                subgraph_density(q, pat), abs=1e-13
            )


class TestEmpiricalAndFinite:
    def test_single_edge(self):
        q = empirical_graphon(FiniteGraph.from_edges(2, [(0, 1)]))
        assert q.masses.tolist() == [0.5, 0.5]
        assert q.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_triangle_homomorphism_density_of_k3(self):
        # brute-force oracle: count all 27 vertex maps of the triangle into K_3
        k3 = FiniteGraph.complete(3)
        a = k3.adjacency
        count = 0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if a[i, j] and a[j, k] and a[k, i]:
                        count += 1
        assert count == 6
        got = subgraph_density(empirical_graphon(k3), SubgraphPattern.triangle())
        assert got == pytest.approx(count / 27, abs=1e-15)

    def test_empty_graph(self):
        q = empirical_graphon(FiniteGraph.empty(5))
        assert np.all(q.values == 0.0)

    def test_complete_graph_calibration(self):
        for pat in (SubgraphPattern.triangle(), SubgraphPattern.star(2), SubgraphPattern.cycle(4)):
            assert finite_density(FiniteGraph.complete(6), pat) == 1

    def test_cycle_examples(self):
        c5 = FiniteGraph.cycle(5)
        assert finite_density(c5, SubgraphPattern.triangle()) == 0
        assert finite_density(c5, SubgraphPattern.edge()) == Fraction(1, 2)

    def test_requires_all_present(self):
        for pat in (SubgraphPattern.signed_two_star(), SubgraphPattern.signed_square()):
            with pytest.raises(ValueError, match="all-present"):
                finite_density(FiniteGraph.complete(4), pat)

    def test_pattern_larger_than_graph(self):
        with pytest.raises(ValueError, match="vertices"):
            finite_density(FiniteGraph.complete(3), SubgraphPattern.complete(4))

    def test_generic_counting_matches_fast_paths(self, rng):
        from phases.graphon import _injective_hom_count

        a = (rng.random((9, 9)) < 0.4).astype(int)
        a = np.triu(a, 1)
        g = FiniteGraph(a + a.T)
        for pat in (SubgraphPattern.edge(), SubgraphPattern.triangle(), SubgraphPattern.star(2)):
            fast = finite_density(g, pat)
            brute = Fraction(_injective_hom_count(g, pat), math.perm(g.n, pat.k))
            assert fast == brute

    def test_injective_approaches_homomorphism_density(self, rng):
        # |finite - hom| = O(1/n): decreasing and < 5 k^2 / n
        gaps = {}
        for n in (50, 100, 200):
            a = (rng.random((n, n)) < 0.4).astype(int)
            a = np.triu(a, 1)
            g = FiniteGraph(a + a.T)
            q = empirical_graphon(g)
            gap = 0.0
            for pat in (SubgraphPattern.edge(), SubgraphPattern.triangle()):
                fin = float(finite_density(g, pat))
                hom = subgraph_density(q, pat)
                gap = max(gap, abs(fin - hom))
                assert abs(fin - hom) < 5 * pat.k**2 / n
            gaps[n] = gap
        assert gaps[200] < gaps[50]


class TestBlowup:
    def test_identity(self):
        g = FiniteGraph.cycle(5)
        assert np.array_equal(blowup(g, 1).adjacency, g.adjacency)

    def test_edge_blowup_is_k22(self):
        got = blowup(FiniteGraph.from_edges(2, [(0, 1)]), 2)
        expected = FiniteGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert np.array_equal(got.adjacency, expected.adjacency)

    def test_triangle_blowup_preserves_densities(self):
        tri = FiniteGraph.complete(3)
        blown = blowup(tri, 2)
        assert blown.n == 6 and blown.edge_count == 12  # K_{2,2,2}
        for pat in (
            SubgraphPattern.edge(),
            SubgraphPattern.triangle(),
            SubgraphPattern.cycle(4),
            SubgraphPattern.star(3),
        ):
            assert subgraph_density(empirical_graphon(blown), pat) == pytest.approx(
                subgraph_density(empirical_graphon(tri), pat), abs=1e-12
            )

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="cap"):
            blowup(FiniteGraph.complete(200), 200)


class TestCanonicalize:
    def test_identical_rows_merge_to_constant(self):
        q = StepGraphon([0.5, 0.5], [[0.3, 0.3], [0.3, 0.3]])
        assert canonicalize(q).m == 1

    def test_idempotent(self, rng):
        q = canonicalize(random_step_graphon(rng, 4))
        q2 = canonicalize(q)
        assert q2.allclose(q)

    def test_recovers_bipodal_from_sampled_graph(self, rng):
        # reference at tau=0 is 0/1-valued, so a sampled graph is deterministic
        # complete bipartite and its empirical graphon merges back to 2 blocks
        from phases.optimizer import reference_construction
        from phases.sampler import _sample_from_graphon

        q = reference_construction(0.5, 0.0)
        adj = _sample_from_graphon(q, 40, rng)
        merged = canonicalize(empirical_graphon(FiniteGraph(adj)), merge_tol=0.1)
        assert merged.m == 2
        assert merged.values[0, 1] == pytest.approx(1.0)
        assert merged.values[0, 0] == pytest.approx(0.0)

    def test_small_merges_preserve_densities(self, rng):
        tol = 1e-3
        base = random_step_graphon(rng, 3)
        # split a block and nudge the copy by < tol/3 in weighted L1
        c = np.array([base.masses[0] / 2, base.masses[0] / 2, base.masses[1], base.masses[2]])
        idx = [0, 0, 1, 2]
        p = base.values[np.ix_(idx, idx)].copy()
        p[0, 2] += tol / 4
        p[2, 0] = p[0, 2]
        split = StepGraphon(c, p)
        merged = canonicalize(split, merge_tol=tol)
        assert merged.m == 3
        for pat in (SubgraphPattern.triangle(), SubgraphPattern.cycle(4)):
            assert abs(
                subgraph_density(merged, pat) - subgraph_density(split, pat)
            ) < 3 * tol

    def test_sorted_by_mass(self, rng):
        q = canonicalize(random_step_graphon(rng, 4), merge_tol=0.0)
        masses = q.masses
        assert all(masses[i] >= masses[i + 1] - 1e-15 for i in range(q.m - 1))
