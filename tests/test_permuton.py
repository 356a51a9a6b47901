import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phases import permuton
from phases.permuton import (
    MARGINAL_TOL,
    GridPermuton,
    Permutation,
    PermutonOptimizerOptions,
    StarPattern,
    _SINKHORN_SWEEPS,
    _all_perms,
    _matches,
    _perm_entropy,
    _PermutonGeometry,
    _rank_tuple,
    count_constrained_perms,
    maximize_permuton_entropy,
    perm_pattern_density,
    perm_to_permuton,
    permuton_entropy,
    permuton_pattern_density,
    project_uniform_marginals,
)
from test_batch import einsum_density, einsum_gradient

P12 = StarPattern.parse("12")
P123 = StarPattern.parse("123")


def random_grid_permuton(rng, k):
    return GridPermuton(project_uniform_marginals(rng.uniform(0.2, 1.8, (k, k))))


class TestTypes:
    def test_permutation_must_be_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_star_symbols_validated(self):
        with pytest.raises(ValueError):
            StarPattern((1, 1, None))
        with pytest.raises(ValueError):
            StarPattern((4, None, None))

    def test_parse_round_trip(self):
        assert str(StarPattern.parse("*2*")) == "*2*"
        assert StarPattern.parse("123").is_plain

    def test_completions(self):
        assert set(StarPattern.parse("*2*").completions()) == {(1, 2, 3), (3, 2, 1)}
        assert StarPattern.parse("12").completions() == ((1, 2),)

    def test_grid_permuton_needs_uniform_marginals(self):
        with pytest.raises(ValueError, match="marginals"):
            GridPermuton([[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            GridPermuton([[1.5, -0.5], [-0.5, 1.5]])


class TestPermPatternDensity:
    def test_identity_all_ascending(self):
        assert perm_pattern_density(Permutation.identity(10), P12) == 1

    def test_exhaustive_pair_oracle(self):
        # brute-force non-inversion count for (2, 4, 1, 3)
        pi = Permutation((2, 4, 1, 3))
        vals = pi.values
        asc = sum(
            1 for i, j in itertools.combinations(range(4), 2) if vals[i] < vals[j]
        )
        assert asc == 3
        assert perm_pattern_density(pi, P12) == Fraction(asc, 6) == Fraction(1, 2)

    def test_star_pattern_in_tiny_permutation(self):
        # 123 matches *2* through the completion 123
        assert perm_pattern_density(Permutation((1, 2, 3)), StarPattern.parse("*2*")) == 1

    def test_caps(self):
        with pytest.raises(ValueError, match="cap"):
            perm_pattern_density(Permutation.identity(10), StarPattern.parse("1234567"))
        with pytest.raises(ValueError, match="cap"):
            perm_pattern_density(
                Permutation.identity(10), StarPattern((None, 2, 3, 4, None))
            )

    def test_pattern_longer_than_permutation(self):
        with pytest.raises(ValueError, match="exceeds"):
            perm_pattern_density(Permutation.identity(2), P123)


class TestPermutonDensities:
    def test_uniform_symmetry(self):
        uni = GridPermuton.uniform(10)
        assert permuton_pattern_density(uni, P12) == pytest.approx(0.5, abs=1e-9)
        assert permuton_pattern_density(uni, P123) == pytest.approx(1 / 6, abs=1e-9)

    def test_identity_grid_with_tie_correction(self):
        # diagonal cells tie with probability 1/n and split evenly, so
        # rho_12(gamma_id) = 1 - 1/(2n)
        for n in (4, 8):
            g = perm_to_permuton(Permutation.identity(n))
            assert permuton_pattern_density(g, P12) == pytest.approx(
                1 - 0.5 / n, abs=1e-12
            )

    def test_exact_matches_montecarlo(self, rng):
        gamma = random_grid_permuton(rng, 10)
        for pat in (P12, StarPattern.parse("132"), StarPattern.parse("*2*")):
            exact = permuton_pattern_density(gamma, pat)
            samples = 200_000
            mc = permuton_pattern_density(
                gamma, pat, method="montecarlo", samples=samples, seed=3
            )
            se = math.sqrt(max(exact * (1 - exact), 1e-6) / samples)
            assert abs(exact - mc) < 4 * se

    def test_reversal_montecarlo(self):
        g21 = perm_to_permuton(Permutation((2, 1)))
        mc = permuton_pattern_density(
            g21, StarPattern.parse("21"), method="montecarlo", samples=300_000, seed=5
        )
        assert abs(mc - 0.75) < 4 * math.sqrt(0.75 * 0.25 / 300_000)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_montecarlo_without_samples_is_refused(self, samples):
        # 0 draws averaged to NaN, with two RuntimeWarnings
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            permuton_pattern_density(GridPermuton.uniform(4), P12, method="montecarlo",
                                     samples=samples)

    def test_pattern_sum_is_one(self, rng):
        for _ in range(3):
            gamma = random_grid_permuton(rng, 8)
            total = sum(
                permuton_pattern_density(gamma, StarPattern(tau))
                for tau in itertools.permutations((1, 2, 3))
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_exact_method_caps(self):
        with pytest.raises(ValueError, match="exact"):
            permuton_pattern_density(GridPermuton.uniform(5), StarPattern.parse("1234"))
        with pytest.raises(ValueError, match="resolution"):
            permuton_pattern_density(GridPermuton.uniform(50), P12)

    def test_consistency_with_permutation_densities(self, rng):
        # permuton density of gamma_pi approaches the permutation density
        # with an O(1/n) gap
        gaps = {}
        for n in (20, 40, 80):
            vals = rng.permutation(n) + 1
            pi = Permutation(tuple(int(v) for v in vals))
            d_perm = float(perm_pattern_density(pi, P12))
            gamma = perm_to_permuton(pi)
            if n <= 40:
                d_gam = permuton_pattern_density(gamma, P12)
            else:
                d_gam = permuton_pattern_density(
                    gamma, P12, method="montecarlo", samples=400_000, seed=7
                )
            gaps[n] = abs(d_perm - d_gam)
            assert gaps[n] < 1.0 / n + 3e-3
        assert gaps[80] < gaps[20] + 3e-3


class TestPermutonEntropy:
    def test_uniform_is_zero(self):
        assert permuton_entropy(GridPermuton.uniform(7)) == 0.0

    def test_permutation_grid_entropy(self):
        for n in range(3, 9):
            pi = Permutation(tuple(np.random.default_rng(n).permutation(n) + 1))
            assert permuton_entropy(perm_to_permuton(pi)) == pytest.approx(
                -math.log(n), abs=1e-12
            )

    def test_two_block_value(self):
        k = 8
        g = np.zeros((k, k))
        half = k // 2
        g[:half, :half] = 2.0
        g[half:, half:] = 2.0
        assert permuton_entropy(GridPermuton(g)) == pytest.approx(-math.log(2), abs=1e-12)

    def test_negative_unless_uniform(self, rng):
        gamma = random_grid_permuton(rng, 9)
        assert permuton_entropy(gamma) < 0.0


class TestMarginals:
    def test_projection_idempotent(self, rng):
        g = project_uniform_marginals(rng.uniform(0.3, 1.7, (9, 9)))
        assert np.array_equal(project_uniform_marginals(g), g)

    def test_permutation_grid_unchanged(self):
        g = perm_to_permuton(Permutation((3, 1, 2))).g
        assert np.array_equal(project_uniform_marginals(g), g)

    def test_scaling_that_does_not_converge_is_refused(self):
        # log cells spread over [-30, 30]: 132 of seeds 0-199 stay off
        # after the sweep cap; each grid either raises with its gap or ends
        # in the tolerance that GridPermuton checks
        refused = 0
        for seed in range(22):
            res = 2 + seed % 11
            g = np.exp(np.random.default_rng(seed).uniform(-30.0, 30.0, (res, res)))
            try:
                GridPermuton(project_uniform_marginals(g))
            except ValueError as exc:
                gap = re.fullmatch(rf"Sinkhorn scaling left a marginal (\S+) from {res} "
                                   rf"after {_SINKHORN_SWEEPS} sweeps", str(exc))
                assert gap and float(gap[1]) > MARGINAL_TOL * res
                refused += 1
        assert 0 < refused < 22

    def test_matrix_convention(self):
        assert perm_to_permuton(Permutation((1, 2))).g.tolist() == [[2.0, 0.0], [0.0, 2.0]]
        assert perm_to_permuton(Permutation((2, 1))).g.tolist() == [[0.0, 2.0], [2.0, 0.0]]


class TestPermutonOptimizer:
    def test_uniform_target_recovers_uniform(self):
        res = maximize_permuton_entropy(
            [(P12, 0.5)], 16, PermutonOptimizerOptions(n_starts=4, seed=2)
        )
        assert res.feasible
        assert abs(res.entropy) < 1e-6
        assert not res.degenerate

    def test_entropy_decreases_toward_degenerate_targets(self):
        ents = []
        for target in (0.6, 0.8, 0.95):
            res = maximize_permuton_entropy(
                [(P12, target)], 12, PermutonOptimizerOptions(n_starts=4, seed=2)
            )
            assert res.feasible
            ents.append(res.entropy)
        assert ents[0] > ents[1] > ents[2]

    def test_unreachable_target_flags_degeneracy(self):
        # rho_12 = 1 needs the singular identity permuton; at resolution k the
        # attainable maximum is 1 - 1/(2k)
        res = maximize_permuton_entropy(
            [(P12, 1.0)], 12, PermutonOptimizerOptions(n_starts=4, seed=2)
        )
        assert not res.feasible
        assert res.degenerate
        assert max(res.residuals) > 0.03

    def test_star_constraint_resolution_stability(self):
        star = StarPattern.parse("*2*")
        r20 = maximize_permuton_entropy(
            [(star, 1 / 3)], 20, PermutonOptimizerOptions(n_starts=4, seed=2)
        )
        r30 = maximize_permuton_entropy(
            [(star, 1 / 3)], 30, PermutonOptimizerOptions(n_starts=4, seed=2)
        )
        assert r20.feasible and r30.feasible
        assert abs(r20.entropy - r30.entropy) < 1e-6

    def test_bench_targets_meet_the_einsum_reference(self):
        # perfbench's generic workload solves these at resolution 20 with 2
        # starts and gates the answers with permuton_pattern_density, which
        # runs the solver's own kernel: measure the residuals by einsum too
        opts = PermutonOptimizerOptions(n_starts=2)
        for name, target in (("12", 0.4), ("123", 0.25)):
            pattern = StarPattern.parse(name)
            res = maximize_permuton_entropy([(pattern, target)], 20, opts)
            g = res.permuton.g
            assert res.feasible and not res.degenerate
            for sums in (g.sum(axis=0), g.sum(axis=1)):
                np.testing.assert_allclose(sums, 20.0, rtol=0, atol=MARGINAL_TOL * 20)
            assert abs(einsum_density(g / 400, pattern) - target) < opts.feasibility_tol

    def test_resolution_cap(self):
        with pytest.raises(ValueError, match="resolution"):
            maximize_permuton_entropy([(P12, 0.5)], 60)

    @pytest.mark.parametrize("res", [0, -2])
    def test_resolution_below_one_is_rejected(self, res):
        with pytest.raises(ValueError, match="resolution must lie in 1..40"):
            maximize_permuton_entropy([(P12, 0.5)], res)


# ---------------------------------------------------------------------------
# the Newton-CG steps of _PermutonGeometry, against the einsum reference

NEWTON_CG = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CG_PATTERNS = ["1", "12", "21", "123", "132", "*2*", "2*1"]


def solver_state(name, res, seed, spread):
    """A geometry with one constraint on the pattern name, and one row
    (theta, grad, lam, rho) of a grid with uniform marginals whose log
    cells spread over [-spread, spread] before the projection."""
    rng = np.random.default_rng(seed)
    pattern = StarPattern.parse(name)
    geo = _PermutonGeometry([(pattern, float(rng.uniform(0.1, 0.9)) / pattern.k)], res)
    theta = geo.start(project_uniform_marginals(np.exp(rng.uniform(-spread, spread, (1, res, res)))))
    GridPermuton(geo.point(theta)[0][0])  # checks the marginals
    lam = rng.normal(size=(1, 1))
    rho = np.array([10.0 ** rng.uniform(1.0, 6.0)])
    return geo, pattern, theta, geo.grads(theta, lam, rho)[2], lam, rho


def al_gradient_reference(g, pattern, target, lam, rho):
    """The AL gradient in g from the einsum reference density."""
    res = len(g)
    gap = einsum_density(g / res**2, pattern) - target
    return _perm_entropy(g[None])[1][0] - (lam + rho * gap) * einsum_gradient(g, pattern)


@NEWTON_CG
@given(name=st.sampled_from(CG_PATTERNS), res=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_curvature_matches_a_difference_of_einsum_gradients(name, res, seed):
    geo, pattern, theta, _, lam, rho = solver_state(name, res, seed, 1.0)
    (g,) = geo.point(theta)
    p = np.random.default_rng(seed + 1).normal(size=g.shape)
    t, dt = geo.evals[0](g, grad=True)
    coef = lam + rho * (t - geo.targets)[:, None]
    bp = geo._curvature(g, p, coef, rho, [dt])[0]
    h = 1e-5
    up, down = (al_gradient_reference(g[0] + s * h * p[0], pattern, geo.targets[0],
                                      lam[0, 0], rho[0]) for s in (1.0, -1.0))
    expect = -(up - down) / (2.0 * h)
    np.testing.assert_allclose(bp, expect, rtol=0, atol=1e-6 * np.abs(expect).max())


@NEWTON_CG
@given(name=st.sampled_from(CG_PATTERNS), res=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([0.5, 2.0, 5.0]))
@example(name="1", res=2, seed=1, spread=0.5)  # a gradient 1e6 times its tangent part
def test_directions_are_tangent_ascent_directions(name, res, seed, spread):
    # zero row and column sums keep the marginals; grad . d > 0 wherever the
    # tangent gradient is not zero
    geo, _, theta, grad, lam, rho = solver_state(name, res, seed, spread)
    d = geo.direction(theta, grad, lam, rho).reshape(res, res)
    for sums in (d.sum(axis=0), d.sum(axis=1)):
        assert np.abs(sums).max() <= 1e-12 * res
    (g,) = geo.point(theta)
    assert (g[0] + d >= permuton.DENSITY_FLOOR).all()
    if not geo.stationary(theta, grad)[0]:
        assert np.sum(grad * d.reshape(1, -1)) > 0.0


def test_two_constraint_solve_converges(monkeypatch):
    # 12 = 0.45 with 123 = 0.2 at r = 10: gradient steps read -0.7141970 at
    # the default max_inner 400 and -0.7141024 at 1600, and moved by up to
    # 1.9e-5 under a last-bit change of the density
    cons = [(P12, 0.45), (P123, 0.2)]
    t0 = time.perf_counter()
    res = maximize_permuton_entropy(cons, 10, PermutonOptimizerOptions(n_starts=3))
    assert time.perf_counter() - t0 < 2.0
    assert res.feasible and not res.degenerate
    assert res.entropy >= -0.7141024
    call = permuton._PatternDensity.__call__

    def scaled(self, g, grad=False):
        val, dg = call(self, g, grad)
        return val * (1.0 + 2.0**-52), (None if dg is None else dg * (1.0 + 2.0**-52))

    monkeypatch.setattr(permuton._PatternDensity, "__call__", scaled)
    moved = maximize_permuton_entropy(cons, 10, PermutonOptimizerOptions(n_starts=3))
    assert moved.feasible
    assert abs(moved.entropy - res.entropy) <= 1e-8


def mallows_density(beta, x, y):
    """Starr's limit of the Mallows model: the entropy maximizer among
    permutons of its 12 density (Starr 2009)."""
    return (beta / 2) * np.sinh(beta / 2) / (
        np.exp(beta / 4) * np.cosh(beta * (x - y) / 2)
        - np.exp(-beta / 4) * np.cosh(beta * (x + y - 1) / 2)) ** 2


def mallows_reference(beta):
    """(rho12, entropy) of u_beta: the midpoint grids at n = 200 and 400,
    their O(n^-2) errors cancelled by Richardson's (4 f_400 - f_200) / 3.
    A grid's 12 density counts a pair in one row or column of cells 1/2
    (the within-cell tie terms); without them rho12 reads 1.7e-3 low at
    beta = 2, and the grid solves then read above the continuum maximum."""
    out = []
    for n in (200, 400):
        x = (np.arange(n) + 0.5) / n
        g = mallows_density(beta, x[:, None], x[None, :])
        w = g / n**2
        u = np.triu(np.ones((n, n)), 1) + 0.5 * np.eye(n)
        out.append(np.array([2.0 * np.sum(w * (u.T @ w @ u)), -np.mean(g * np.log(g))]))
    return (4.0 * out[1] - out[0]) / 3.0


@pytest.mark.parametrize("beta", [2.0, 5.0])
def test_grid_solves_converge_to_the_mallows_permuton(beta):
    # at r = 10, 20, 40 a 12-only solve falls short of the continuum maximum
    # S at O(r^-2): successive shortfalls shrink about 4x, and Richardson's
    # extrapolation lands on S
    rho12, entropy = mallows_reference(beta)
    solved = [maximize_permuton_entropy([(P12, rho12)], r, PermutonOptimizerOptions(n_starts=2))
              for r in (10, 20, 40)]
    assert all(res.feasible for res in solved)
    short = [entropy - res.entropy for res in solved]
    assert all(s > 0.0 for s in short)
    assert 3.5 <= short[0] / short[1] <= 4.5 and 3.5 <= short[1] / short[2] <= 4.5
    assert abs((4.0 * solved[2].entropy - solved[1].entropy) / 3.0 - entropy) <= 1e-5

class TestCounting:
    def test_s4_example(self):
        rep = count_constrained_perms(4, [(P12, 0.5)], 0.1)
        assert rep.count == 6

    def test_tight_window_only_identity(self):
        rep = count_constrained_perms(3, [(P123, 1.0)], 0.5)
        assert rep.count == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_permutation_table_is_itertools_order(self, n):
        table = _all_perms(n)
        assert table.dtype == np.int8
        expected = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)
        np.testing.assert_array_equal(table, expected)

    def test_empty_constraints(self):
        rep = count_constrained_perms(5, [], 0.1)
        assert rep.count == 120
        assert rep.log_normalized == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pattern", ["123", "12", "21", "132", "1*3"])
    def test_matches_brute_force(self, pattern):
        # independent oracle: score each permutation directly
        pat = StarPattern.parse(pattern)
        n, alpha, delta = 5, 0.4, 0.15
        brute = 0
        for vals in itertools.permutations(range(1, n + 1)):
            d = perm_pattern_density(Permutation(vals), pat)
            if abs(d - Fraction(str(alpha))) < Fraction(str(delta)):
                brute += 1
        rep = count_constrained_perms(n, [(pat, alpha)], delta)
        assert rep.count == brute

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=st.integers(1, 6))
    def test_order_type_lookup_matches_rank_tuples(self, data, k):
        symbols = data.draw(st.permutations(range(1, k + 1)))
        stars = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        pattern = StarPattern(tuple(None if s else v for v, s in zip(symbols, stars)))
        rows = data.draw(st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k, unique=True),
            min_size=1, max_size=30))
        wanted = set(pattern.completions())
        expect = [_rank_tuple(row) in wanted for row in rows]
        assert _matches(np.array(rows).T, pattern).tolist() == expect

    @pytest.mark.parametrize("pattern, alpha", [("123", 0.2), ("*2*", 0.3)])
    def test_matches_brute_force_at_n7(self, pattern, alpha):
        # the counts sum uint8 matches over all 35 position triples
        pat = StarPattern.parse(pattern)
        n, delta = 7, 0.1
        brute = sum(
            abs(perm_pattern_density(Permutation(vals), pat) - Fraction(str(alpha)))
            < Fraction(str(delta))
            for vals in itertools.permutations(range(1, n + 1))
        )
        assert 0 < brute < math.factorial(n)
        assert count_constrained_perms(n, [(pat, alpha)], delta).count == brute

    def test_star_pattern_counting(self):
        star = StarPattern.parse("*2*")
        brute = 0
        for vals in itertools.permutations(range(1, 5)):
            d = perm_pattern_density(Permutation(vals), star)
            if abs(d - Fraction(1, 2)) < Fraction(1, 4):
                brute += 1
        rep = count_constrained_perms(4, [(star, 0.5)], 0.25)
        assert rep.count == brute

    def test_trend_toward_zero(self):
        vals = []
        for n in range(5, 10):
            rep = count_constrained_perms(n, [(P12, 0.5)], 0.1)
            vals.append(rep.log_normalized)
        assert all(v < 0 for v in vals)
        assert all(vals[i + 1] > vals[i] for i in range(len(vals) - 1))

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            count_constrained_perms(10, [(P12, 0.5)], 0.1)
