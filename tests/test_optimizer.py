import math

import numpy as np
import pytest

from phases.graphon import (
    ConstraintVector,
    PatternTooLargeError,
    StepGraphon,
    SubgraphPattern,
    graphon_entropy,
    subgraph_density,
)
from phases.optimizer import (
    OptimizerOptions,
    bounded_signed_max,
    constrained_entropy,
    maximize_entropy,
    reference_construction,
    staircase_graphon,
)

FAST = OptimizerOptions(n_starts=8, seed=7, m_max=4)

EDGE = SubgraphPattern.edge()
TRI = SubgraphPattern.triangle()


def binary_entropy(p: float) -> float:
    return -0.5 * (p * math.log(p) + (1 - p) * math.log(1 - p))


class TestReferenceConstruction:
    def test_zero_triangle_at_half_is_complete_bipartite(self):
        q = reference_construction(0.5, 0.0)
        assert q.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_er_point_is_constant(self):
        # float 0.3**3 is a hair below 0.027, so this lands on the symmetric
        # branch; continuity keeps the values near constant and the densities
        # are still exact
        q = reference_construction(0.3, 0.027)
        assert np.abs(q.values - 0.3).max() < 1e-5
        assert subgraph_density(q, EDGE) == pytest.approx(0.3, abs=1e-10)
        assert subgraph_density(q, TRI) == pytest.approx(0.027, abs=1e-10)

    def test_symmetric_branch_cubic_root(self):
        q = reference_construction(0.5, 0.15)
        # a solves 4a^3 - 6a^2 + 3a = 0.6; f'(a) = 3(2a-1)^2 >= 0 so the root
        # is unique
        a = q.values[0, 0]
        assert 4 * a**3 - 6 * a**2 + 3 * a == pytest.approx(0.6, abs=1e-12)
        assert a == pytest.approx(0.7924, abs=1e-4)
        assert q.values[0, 1] == pytest.approx(2 * 0.5 - a, abs=1e-12)

    def test_constraints_hit_exactly(self, rng):
        for _ in range(20):
            eps = rng.uniform(0.05, 0.5)
            tau = rng.uniform(0.0, eps**3)
            q = reference_construction(eps, tau)
            assert subgraph_density(q, EDGE) == pytest.approx(eps, abs=1e-10)
            assert subgraph_density(q, TRI) == pytest.approx(tau, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reference_construction(0.7, 0.1)
        with pytest.raises(ValueError):
            reference_construction(0.3, 0.2)  # above eps^(3/2)
        with pytest.raises(ValueError):
            reference_construction(0.3, 0.1)  # above the symmetric branch range


class TestMaximizeEntropy:
    def test_er_point_recovers_constant(self):
        res = maximize_entropy(ConstraintVector.edge_triangle(0.3, 0.027), 2, FAST)
        assert res.feasible
        assert res.podality == 1
        assert res.constant
        assert res.entropy == pytest.approx(binary_entropy(0.3), abs=1e-6)

    def test_proven_segment_values(self):
        res = maximize_entropy(ConstraintVector.edge_triangle(0.5, 0.1), 2, FAST)
        assert res.feasible
        x = np.cbrt(0.125 - 0.1)
        assert res.graphon.values[0, 0] == pytest.approx(0.5 - x, abs=1e-4)
        assert res.graphon.values[0, 1] == pytest.approx(0.5 + x, abs=1e-4)
        assert res.entropy == pytest.approx(graphon_entropy(res.graphon), abs=1e-6)
        assert res.symmetric_bipodal

    def test_unconstrained_point(self):
        res = maximize_entropy(ConstraintVector.edge_triangle(0.5, 0.125), 2, FAST)
        assert res.feasible
        assert res.entropy == pytest.approx(math.log(2) / 2, abs=1e-9)
        assert res.podality == 1

    def test_infeasible_is_explicit(self):
        res = maximize_entropy(ConstraintVector.edge_triangle(0.3, 0.2), 2, FAST)
        assert not res.feasible
        assert max(res.residuals) > 1e-3

    def test_determinism(self):
        cons = ConstraintVector.edge_triangle(0.45, 0.08)
        r1 = maximize_entropy(cons, 2, FAST)
        r2 = maximize_entropy(cons, 2, FAST)
        assert r1.entropy == r2.entropy
        assert np.array_equal(r1.graphon.values, r2.graphon.values)
        assert np.array_equal(r1.graphon.masses, r2.graphon.masses)
        assert r1.residuals == r2.residuals

    def test_entropy_bounds(self, rng):
        for _ in range(4):
            eps = rng.uniform(0.2, 0.5)
            tau = rng.uniform(0.2 * eps**3, eps**3)
            res = maximize_entropy(
                ConstraintVector.edge_triangle(eps, tau), 2,
                OptimizerOptions(n_starts=4, seed=int(rng.integers(1000))),
            )
            assert res.entropy <= math.log(2) / 2 + 1e-12
            assert res.entropy >= -1e-12

    def test_candidate_dominance(self, rng):
        # the closed-form construction is feasible, so the optimum dominates it
        for _ in range(3):
            eps = rng.uniform(0.25, 0.5)
            tau = rng.uniform(0.1 * eps**3, 0.95 * eps**3)
            ref = reference_construction(eps, tau)
            res = maximize_entropy(
                ConstraintVector.edge_triangle(eps, tau), 2,
                OptimizerOptions(n_starts=6, seed=11),
            )
            assert res.feasible
            assert res.entropy >= graphon_entropy(ref) - 1e-6

    def test_monotone_in_m_with_escalation_seed(self):
        cons = ConstraintVector.edge_triangle(0.45, 0.07)
        r2 = maximize_entropy(cons, 2, FAST)
        r3 = maximize_entropy(cons, 3, FAST, extra_seeds=(r2.graphon,))
        assert r3.entropy >= r2.entropy - 1e-9

    def test_m_validation(self):
        with pytest.raises(ValueError):
            maximize_entropy(ConstraintVector.edge_triangle(0.3, 0.02), 0, FAST)
        with pytest.raises(ValueError):
            maximize_entropy(ConstraintVector.edge_triangle(0.3, 0.02), 17, FAST)


class TestConstrainedEntropy:
    def test_minimal_podality_on_er_curve(self):
        res = constrained_entropy(ConstraintVector.edge_triangle(0.4, 0.064), FAST)
        assert res.feasible
        assert res.podality == 1
        assert res.entropy == pytest.approx(binary_entropy(0.4), abs=1e-6)

    def test_example_0p4(self):
        res = constrained_entropy(ConstraintVector.edge_triangle(0.4, 0.032), FAST)
        assert res.feasible
        x = np.cbrt(0.064 - 0.032)
        assert res.podality == 2
        assert abs(res.graphon.masses[0] - 0.5) < 1e-3
        assert res.graphon.values[0, 0] == pytest.approx(0.4 - x, abs=1e-4)
        assert res.graphon.values[0, 1] == pytest.approx(0.4 + x, abs=1e-4)
        # the construction satisfies the triangle target exactly:
        # (eps - x)(eps^2 + eps x + x^2) = eps^3 - x^3 = tau
        assert max(res.residuals) < 1e-8

    def test_infeasible_propagates(self):
        res = constrained_entropy(
            ConstraintVector.edge_triangle(0.3, 0.2),
            OptimizerOptions(n_starts=4, seed=7, m_max=3),
        )
        assert not res.feasible

    def test_infeasible_target_reports_smallest_tying_podality(self):
        # above the clique curve tau = eps^1.5, m = 2, 3, 4 and 6 reach worst
        # residual 0.020931418 and m = 5 reaches 0.020931312, with a 5-podal
        # graphon; that 1e-7 difference must not set the reported podality
        res = constrained_entropy(
            ConstraintVector.edge_triangle(0.3, 0.2), OptimizerOptions(n_starts=8, m_max=6)
        )
        assert not res.feasible
        assert res.podality == 2
        assert max(res.residuals) == pytest.approx(0.0209314, abs=1e-6)


class TestBoundedSignedMax:
    def test_staircase_values(self):
        for m in (2, 4, 8):
            q = staircase_graphon(m)
            t1 = subgraph_density(q, SubgraphPattern.signed_two_star())
            assert t1 == pytest.approx((m * m - 1) / (6 * m * m), abs=1e-14)
            assert subgraph_density(q, SubgraphPattern.signed_square()) == 0.0

    def test_constant_ansatz_is_degenerate(self):
        res = bounded_signed_max(
            SubgraphPattern.signed_two_star(), SubgraphPattern.signed_square(), 1,
            OptimizerOptions(n_starts=4, seed=7),
        )
        assert res.feasible
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_bipodal_beats_zero_and_nested_sets(self):
        opts = OptimizerOptions(n_starts=4, seed=7)
        r2 = bounded_signed_max(
            SubgraphPattern.signed_two_star(), SubgraphPattern.signed_square(), 2, opts
        )
        assert r2.feasible and r2.value >= 0.125 - 1e-9
        r4 = bounded_signed_max(
            SubgraphPattern.signed_two_star(), SubgraphPattern.signed_square(), 4, opts
        )
        assert r4.value >= r2.value - 1e-9

    def test_m_cap(self):
        with pytest.raises(ValueError):
            bounded_signed_max(
                SubgraphPattern.signed_two_star(), SubgraphPattern.signed_square(), 13
            )


def test_pattern_above_vertex_cap_is_rejected():
    big = SubgraphPattern.path(7)
    with pytest.raises(PatternTooLargeError, match="7 vertices"):
        maximize_entropy(ConstraintVector(((EDGE, 0.5), (big, 0.1))), 2, FAST)
    with pytest.raises(PatternTooLargeError, match="7 vertices"):
        bounded_signed_max(SubgraphPattern.signed_two_star(), big, 2, FAST)
    with pytest.raises(PatternTooLargeError, match="7 vertices"):
        bounded_signed_max(big, SubgraphPattern.signed_square(), 2, FAST)
