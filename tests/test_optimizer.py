import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phases.graphon import (
    ConstraintVector,
    PatternTooLargeError,
    StepGraphon,
    SubgraphPattern,
    graphon_entropy,
    subgraph_density,
)
from phases import optimizer
from phases.gradients import DensityEvaluator, EntropyObjective, _vm
from phases.optimizer import (
    _ESCALATION_TOL,
    _INSERTION_TOL,
    _KKT_TOL,
    OptimizerOptions,
    _coords,
    _GraphonGeometry,
    _insertion_certificate,
    _InsertionGeometry,
    _multipliers,
    bounded_signed_max,
    constrained_entropy,
    maximize_entropy,
    reference_construction,
    staircase_graphon,
)
from phases.permuton import PermutonOptimizerOptions, StarPattern, maximize_permuton_entropy

FAST = OptimizerOptions(n_starts=8, seed=7, m_max=4)
PANEL = OptimizerOptions(n_starts=8, m_max=6)  # the benchmark's optimize panel
SCAN = OptimizerOptions(n_starts=4, seed=13, m_max=3)  # test_scan.py

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
        assert res.escalation_stop is None  # no escalation ran

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
        # above the clique curve tau = eps^1.5 the certificate stops at m = 2,
        # worst residual 0.020931418; m = 3 and 4 reach the same, and m = 5,
        # were it run, 0.020931312 (a 5-podal graphon), which differs by 1e-7
        # and must not set the reported podality
        res = constrained_entropy(
            ConstraintVector.edge_triangle(0.3, 0.2), OptimizerOptions(n_starts=8, m_max=6)
        )
        assert not res.feasible
        assert res.podality == 2
        assert max(res.residuals) == pytest.approx(0.0209314, abs=1e-6)


def _solved_ms(monkeypatch):
    """The m of every maximize_entropy call constrained_entropy makes, with
    its result."""
    calls = []
    inner = optimizer.maximize_entropy

    def record(cons, m, *args, **kwargs):
        calls.append((m, inner(cons, m, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(optimizer, "maximize_entropy", record)
    return calls


def _refuse_infeasible(monkeypatch):
    """Make the certificate refuse every infeasible graphon, which leaves the
    escalation to its two-tying-sizes rule there."""
    inner = optimizer._insertion_certificate

    def refuse(q, evals, gaps=None):
        gain, certified = inner(q, evals, gaps)
        return gain, certified and gaps is None

    monkeypatch.setattr(optimizer, "_insertion_certificate", refuse)


def test_infeasible_escalation_stops_after_two_tying_sizes(monkeypatch):
    # with the certificate refusing, m = 3 and 4 tie m = 2's worst residual,
    # so m = 5 and 6 are not run
    _refuse_infeasible(monkeypatch)
    calls = _solved_ms(monkeypatch)
    res = constrained_entropy(
        ConstraintVector.edge_triangle(0.3, 0.2), OptimizerOptions(n_starts=8, m_max=6)
    )
    assert [m for m, _ in calls] == [1, 2, 3, 4]
    assert not res.feasible and res.podality == 2
    assert res.insertion_gain is None
    assert res.escalation_stop == "ties"


# above the clique curve, and below the triangle lower bound at edge density
# above 1/2
INFEASIBLE_ABOVE = [(0.3, 0.2), (0.3, 0.17), (0.4, 0.26), (0.25, 0.17)]
INFEASIBLE_BELOW = [(0.6, 0.01), (0.7, 0.2)]


@pytest.mark.parametrize("eps,tau", INFEASIBLE_ABOVE + INFEASIBLE_BELOW)
def test_certified_infeasible_stop_matches_the_tying_rule(monkeypatch, eps, tau):
    cons = ConstraintVector.edge_triangle(eps, tau)
    calls = _solved_ms(monkeypatch)
    res = constrained_entropy(cons, PANEL)
    solved = [m for m, _ in calls]
    calls.clear()
    _refuse_infeasible(monkeypatch)
    fallback = constrained_entropy(cons, PANEL)
    assert not res.feasible and res.insertion_gain is None
    if (eps, tau) in INFEASIBLE_ABOVE:
        assert solved == [1, 2] and res.escalation_stop == "certified"
    else:
        # every block of the constant graphon below the ER curve can be split
        # to third order, so the certificate refuses and the ties rule stops
        assert res.escalation_stop == "ties" and solved == [m for m, _ in calls]
    assert fallback.escalation_stop == "ties"
    assert {**res.to_dict(), "escalation_stop": None} == {**fallback.to_dict(), "escalation_stop": None}


def test_escalation_stops_without_gain_where_the_certificate_refuses(monkeypatch):
    # the anchor's KKT residual read as 1e-3: m = 3 and 4 gain nothing on m = 2
    inner = optimizer._multipliers
    monkeypatch.setattr(optimizer, "_multipliers", lambda q, ev: (inner(q, ev)[0], 1e-3))
    calls = _solved_ms(monkeypatch)
    res = constrained_entropy(ConstraintVector.edge_triangle(0.4, 0.05), PANEL)
    assert [m for m, _ in calls] == [1, 2, 3, 4]
    assert res.m == 2 and res.escalation_stop == "no_gain"


def test_no_gain_stops_where_the_certificate_refuses_a_real_gain(monkeypatch):
    # at (0.15, 1.1 eps^3) m = 2 reaches the asymmetric bipodal, masses
    # 0.99846/0.00154, S = 0.2094811 (the symmetric one reads 7.9e-3 less);
    # its insertion gain is 4e-14 but its KKT residual refuses the
    # certificate, and m = 3 and 4 find nothing better, so the two-sizes
    # rule, not m_max, ends the escalation (nothing is patched but a
    # recorder of the solves)
    calls = _solved_ms(monkeypatch)
    res = constrained_entropy(ConstraintVector.edge_triangle(0.15, 0.0037125), PANEL)
    assert [m for m, _ in calls] == [1, 2, 3, 4]
    assert [r.feasible for _, r in calls] == [False, True, True, True]
    assert res.escalation_stop == "no_gain" and res.podality == 2 and res.m == 2
    assert res.entropy == pytest.approx(0.2094811, abs=1e-6)


def test_an_infeasible_size_after_a_feasible_best_counts_toward_the_stop(monkeypatch):
    # one rule for every size: a size that the feasible best is no worse
    # than counts toward the two-sizes stop, an infeasible one included
    inner = optimizer._multipliers
    monkeypatch.setattr(optimizer, "_multipliers", lambda q, ev: (inner(q, ev)[0], 1e-3))
    calls = _solved_ms(monkeypatch)
    solve = optimizer.maximize_entropy

    def infeasible_m3(cons, m, *args, **kwargs):
        res = solve(cons, m, *args, **kwargs)
        return replace(res, feasible=False, residuals=(1e-2, 1e-2)) if m == 3 else res

    monkeypatch.setattr(optimizer, "maximize_entropy", infeasible_m3)
    res = constrained_entropy(ConstraintVector.edge_triangle(0.4, 0.05), PANEL)
    assert [m for m, _ in calls] == [1, 2, 3, 4]
    assert calls[1][1].feasible  # m = 2 sets a feasible best
    assert res.m == 2 and res.feasible and res.escalation_stop == "no_gain"


def _lagrangian(q, pats, lam):
    return graphon_entropy(q) - sum(l * subgraph_density(q, pat) for l, pat in zip(lam, pats))


def _inserted(c, p, r, delta):
    """(c, p) with a block of mass delta and row r, the others shrunk by 1 - delta."""
    k = len(c)
    p2 = np.zeros((k + 1, k + 1))
    p2[:k, :k] = p
    p2[k, :k] = p2[:k, k] = r
    p2[k, k] = 0.5
    return StepGraphon(np.append((1.0 - delta) * c, delta), p2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_insertion_gain_is_the_derivative_of_inserting_a_block(m):
    rng = np.random.default_rng(900 + m)
    pats = [EDGE, TRI, SubgraphPattern.star(2), SubgraphPattern.cycle(4)]
    evals = [DensityEvaluator(pat) for pat in pats]
    for _ in range(4):
        c = rng.dirichlet(np.full(m, 2.0))
        p = rng.uniform(0.05, 0.95, (m, m))
        p = (p + p.T) / 2.0
        lam = rng.normal(size=len(pats))
        geo = _InsertionGeometry(c, p, evals, lam)
        rows = rng.uniform(0.0, 1.0, (5, m))
        gain = geo.measure(rows)[0]
        base = _lagrangian(StepGraphon(c, p), pats, lam)
        delta = 1e-6
        for r, g in zip(rows, gain):
            fd = [(_lagrangian(_inserted(c, p, r, d), pats, lam) - base) / d
                  for d in (delta, 2 * delta)]
            assert g == pytest.approx(2.0 * fd[0] - fd[1], abs=1e-7)
        # the ascent's gradient in r is that of the gain
        grad = geo.grads(rows, np.zeros((5, 0)), np.zeros(5))[2]
        h = 1e-6
        for j in range(m):
            up, dn = rows.copy(), rows.copy()
            up[:, j] += h
            dn[:, j] -= h
            fd = (geo.measure(up)[0] - geo.measure(dn)[0]) / (2 * h)
            np.testing.assert_allclose(grad[:, j], fd, rtol=1e-5, atol=1e-7)


# every row of [0,1] at step 1/400, and of [0,1]^2 at step 1/200
GRID_ROWS = {1: np.linspace(0.0, 1.0, 401)[:, None],
             2: np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, 201)] * 2), axis=-1).reshape(-1, 2)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.sampled_from([1, 2]), tri=st.booleans(), entropy=st.booleans(), data=st.data())
def test_insertion_ascent_reaches_the_best_row_of_a_grid(m, tri, entropy, data):
    # gradient steps with Barzilai-Borwein sizes stopped short of the box
    # where the gain, with no entropy a polynomial in the row, is largest
    evals = [DensityEvaluator(EDGE), *([DensityEvaluator(TRI)] if tri else [])]
    c = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m), label="c"))
    upper = data.draw(st.lists(st.floats(0.02, 0.98), min_size=m * (m + 1) // 2,
                               max_size=m * (m + 1) // 2), label="p")
    p = np.empty((m, m))
    p[np.triu_indices(m)] = upper
    p.T[np.triu_indices(m)] = upper
    lam = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(evals),
                                      max_size=len(evals)), label="lam"))
    q = StepGraphon(c / c.sum(), p)
    geo = _InsertionGeometry(q.masses, q.values, evals, lam, entropy)
    best_row = geo.measure(geo.project(GRID_ROWS[m]))[0].max()
    assert optimizer._insertion_gain(q, evals, lam, entropy) >= best_row - 1e-9


def _half_residual(q, pats, alpha):
    g = np.array([subgraph_density(q, pat) for pat in pats]) - alpha
    return -0.5 * float(g @ g)


@pytest.mark.parametrize("m", [1, 2])
def test_residual_gain_is_the_derivative_of_inserting_a_block(m):
    # at an infeasible result, the gain with no entropy and lam = g is the
    # derivative of -|t(q) - alpha|^2 / 2 under inserting a block
    pats = [EDGE, TRI]
    evals = [DensityEvaluator(pat) for pat in pats]
    rng = np.random.default_rng(910 + m)
    for eps, tau in INFEASIBLE_ABOVE[:2] + INFEASIBLE_BELOW:
        cons = ConstraintVector.edge_triangle(eps, tau)
        q = maximize_entropy(cons, m, PANEL).graphon
        c, p = q.masses, q.values
        g = np.array([subgraph_density(q, pat) for pat in pats]) - cons.targets
        geo = _InsertionGeometry(c, p, evals, g, entropy=False)
        rows = np.concatenate([rng.uniform(0.0, 1.0, (4, q.m)), p])
        gain = geo.measure(rows)[0]
        base = _half_residual(q, pats, cons.targets)
        assert base == pytest.approx(-0.5 * float(g @ g), abs=1e-15)
        delta = 1e-6
        for r, gr in zip(rows, gain):
            fd = [(_half_residual(_inserted(c, p, r, d), pats, cons.targets) - base) / d
                  for d in (delta, 2 * delta)]
            assert gr == pytest.approx(2.0 * fd[0] - fd[1], abs=1e-8)


def test_residual_certificate_refuses_off_stationary_and_splittable_points():
    evals = [DensityEvaluator(EDGE), DensityEvaluator(TRI)]

    def gaps_tol(q, cons):
        g = np.array([ev.value(q.masses, q.values) for ev in evals]) - cons.targets
        return g, optimizer._RESIDUAL_TIE_RTOL * float(g @ g)

    # below the ER curve the constant graphon is stationary for the residual
    # and no insertion lowers it to first order, yet m = 2 is feasible there;
    # the split condition refuses it before the insertion ascent runs
    cons = ConstraintVector.edge_triangle(0.4, 0.05)
    q = maximize_entropy(cons, 1, PANEL).graphon
    g, tol = gaps_tol(q, cons)
    assert optimizer._insertion_gain(q, evals, g, entropy=False) <= tol
    assert _insertion_certificate(q, evals, g) == (None, False)
    assert maximize_entropy(cons, 2, PANEL).feasible
    # above the clique curve the m = 2 point passes; with one off-diagonal
    # value moved inside (0,1) its own coordinates lower the residual
    cons = ConstraintVector.edge_triangle(0.3, 0.2)
    q = maximize_entropy(cons, 2, PANEL).graphon
    assert _insertion_certificate(q, evals, gaps_tol(q, cons)[0])[1]
    p = q.values.copy()
    p[0, 1] = p[1, 0] = 0.05
    q = StepGraphon(q.masses, p)
    assert not optimizer._residual_stationary(q, evals, *gaps_tol(q, cons))


def test_inserting_an_existing_row_gains_nothing():
    # at a KKT point a copy of an old block's row gains that block's mass
    # component of the KKT residual
    evals = [DensityEvaluator(EDGE), DensityEvaluator(TRI)]
    for cons in (ConstraintVector.edge_triangle(0.4, 0.05), ConstraintVector.edge_triangle(0.4, 0.07)):
        q = maximize_entropy(cons, 2, PANEL).graphon
        lam, kkt = _multipliers(q, evals)
        assert kkt <= _KKT_TOL
        own = _InsertionGeometry(q.masses, q.values, evals, lam).measure(q.values)[0]
        assert np.abs(own).max() <= max(kkt, 1e-15)


# the feasible optimize-panel targets, criteria 2, 3 and 6, and the corners of
# the grids in test_scan.py below the ER curve, each at the options its test
# runs; the corners above it escalate to m_max, like criterion 6, so they
# have no certified stop to check
CERTIFIED_TARGETS = [
    (0.4, 0.05, PANEL), (0.5, 0.06, PANEL), (0.45, 0.45**3, PANEL),
    *[(eps, eps**3, OptimizerOptions(n_starts=8, seed=202, m_max=4)) for eps in (0.2, 0.3, 0.4, 0.5)],
    *[(0.5, tau, OptimizerOptions(n_starts=8, seed=303, m_max=4)) for tau in (0.02, 0.06, 0.10)],
    (0.5, 0.15, OptimizerOptions(n_starts=10, seed=606, m_max=4)),
    (0.4, 0.052, SCAN),
    (0.42, 0.02, SCAN), (0.42, 0.04, SCAN), (0.46, 0.02, SCAN), (0.46, 0.04, SCAN),
]


@pytest.mark.parametrize("eps,tau,opts", CERTIFIED_TARGETS)
def test_certified_stop_leaves_no_gain_at_the_next_m(monkeypatch, eps, tau, opts):
    cons = ConstraintVector.edge_triangle(eps, tau)
    calls = _solved_ms(monkeypatch)
    res = constrained_entropy(cons, opts)
    m, last = calls[-1]
    if not last.feasible or m == opts.m_max:
        return
    gain, certified = _insertion_certificate(last.graphon, [DensityEvaluator(EDGE), DensityEvaluator(TRI)])
    if not certified:
        return  # stopped by the two-small-gains rule
    if res.m == m:
        assert res.insertion_gain == gain
    best = max(r.entropy for _, r in calls if r.feasible)
    assert last.entropy == best
    nxt = maximize_entropy(cons, m + 1, opts, extra_seeds=(last.graphon,))
    assert nxt.entropy - best < _ESCALATION_TOL


def test_certificate_refuses_points_that_are_not_kkt_points(monkeypatch):
    evals = [DensityEvaluator(EDGE), DensityEvaluator(TRI)]
    # a feasible graphon for its own densities that no multipliers make
    # stationary
    q = StepGraphon([0.3, 0.7], [[0.2, 0.7], [0.7, 0.4]])
    assert _multipliers(q, evals)[1] > 1e-3
    assert not _insertion_certificate(q, evals)[1]
    # a KKT point of m = 2 that inserting a third block improves: the
    # symmetric bipodal at (0.4, 0.07), S = 0.3011164708
    cons = ConstraintVector.edge_triangle(0.4, 0.07)
    sym = reference_construction(0.4, 0.07)
    assert _multipliers(sym, evals)[1] <= _KKT_TOL
    gain, certified = _insertion_certificate(sym, evals)
    assert gain > 0.1 and not certified
    # the ascent finds at least the best row of a 201 x 201 grid
    grid = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, 201)] * 2), axis=-1).reshape(-1, 2)
    geo = _InsertionGeometry(sym.masses, sym.values, evals, _multipliers(sym, evals)[0])
    assert gain >= geo.measure(geo.project(grid))[0].max() - 1e-12
    # the escalation finds the asymmetric bipodal there (masses 0.8015 and
    # 0.1985), certified at m = 2; 0.3263028416 is what a 3-block graphon
    # with a block of mass 1.4e-5 reaches
    res = constrained_entropy(cons, OptimizerOptions(n_starts=8, m_max=3))
    assert res.podality == 2 and res.escalation_stop == "certified"
    assert res.entropy >= 0.3263028416 > graphon_entropy(sym) + 0.01
    # the anchor's m = 2 optimum gains nothing by an insertion; with its
    # KKT residual read as 1e-3 the escalation must go on to m = 3
    inner = optimizer._multipliers
    monkeypatch.setattr(optimizer, "_multipliers", lambda q, ev: (inner(q, ev)[0], 1e-3))
    calls = _solved_ms(monkeypatch)
    res = constrained_entropy(ConstraintVector.edge_triangle(0.4, 0.05), OptimizerOptions(n_starts=8, m_max=3))
    assert [m for m, _ in calls] == [1, 2, 3]
    assert res.insertion_gain <= _INSERTION_TOL
    assert res.escalation_stop == "m_max"


class TestBoundedSignedMax:
    def test_staircase_values(self):
        # the sweep's answer is a raw staircase seed, feasible only because
        # t2 reads 0.0 exactly, on the closed form and on the plan alike
        t2 = SubgraphPattern.signed_square()
        closed, plan = DensityEvaluator(t2), DensityEvaluator(t2)
        plan.kind = "generic"
        for m in range(1, 13):
            q = staircase_graphon(m)
            t1 = subgraph_density(q, SubgraphPattern.signed_two_star())
            assert t1 == pytest.approx((m * m - 1) / (6 * m * m), abs=1e-14)
            assert subgraph_density(q, t2) == 0.0
            seeds = [(q.masses, q.values)]
            if m >= 2:
                seeds.append(optimizer._split_to_m(staircase_graphon(m // 2), m))
            for c, p in seeds:
                assert closed.value(c, p) == closed.value_and_grads(c, p)[0] == 0.0
                assert plan.value(c, p) == 0.0

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


@pytest.mark.parametrize("m_max", [0, -1, optimizer.M_CAP + 1])
def test_m_max_outside_the_podality_range_is_rejected(m_max):
    # checked when the options are made, not when the escalation reaches it
    with pytest.raises(ValueError, match=f"m_max must lie in 1..{optimizer.M_CAP}"):
        OptimizerOptions(m_max=m_max)
    OptimizerOptions(m_max=optimizer.M_CAP)


# a small solve of each kind, so that every accepted value is run
OPTION_BASES = (OptimizerOptions(n_starts=2, max_outer=3, max_inner=20, m_max=2),
                PermutonOptimizerOptions(n_starts=2, max_outer=3, max_inner=20))
OPTION_VALUES = st.one_of(st.integers(-3, 3), st.sampled_from(
    [-1.0, 0.0, 1e-8, 0.5, 2.5, math.inf, -math.inf, math.nan, True, None, "1"]))


@pytest.mark.parametrize("kind, name", [(kind, f.name) for kind, base in enumerate(OPTION_BASES)
                                        for f in dataclasses.fields(base)])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(value=OPTION_VALUES)
def test_every_option_value_is_refused_with_its_name_or_solved(kind, name, value):
    # --tol -1 once died in constrained_entropy with StopIteration and
    # --starts -3 ran; a value is now a ValueError naming its field, or valid
    try:
        opts = replace(OPTION_BASES[kind], **{name: value})
    except ValueError as exc:
        assert name in str(exc)
        return
    if kind == 0:
        res = constrained_entropy(ConstraintVector.edge_triangle(0.4, 0.05), opts)
        assert res.escalation_stop is not None
    else:
        res = maximize_permuton_entropy([(StarPattern.parse("12"), 0.4)], 4, opts)
        assert res.permuton.k == 4


@pytest.mark.parametrize("cls", [OptimizerOptions, PermutonOptimizerOptions])
@pytest.mark.parametrize("name, value", [("n_starts", 0), ("n_starts", -3), ("seed", -1),
                                         ("max_outer", 0), ("max_inner", 0),
                                         ("feasibility_tol", -1.0), ("feasibility_tol", 0.0),
                                         ("feasibility_tol", math.nan)])
def test_options_outside_their_range_are_rejected(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


# ---------------------------------------------------------------------------
# the Newton steps of _GraphonGeometry

NEWTON = settings(max_examples=30, deadline=None, derandomize=True, database=None)
# the 4-cycle has no closed form, so its set runs the Hessian and direction
# checks through a contraction plan
CONSTRAINT_SETS = {"edge-triangle": (EDGE, TRI),
                   "edge-signed-square": (EDGE, SubgraphPattern.signed_square()),
                   "edge-4cycle": (EDGE, SubgraphPattern.cycle(4))}


def _geometry(name, m, targets=(0.3, 0.02)):
    evals = [DensityEvaluator(pat) for pat in CONSTRAINT_SETS[name]]
    return _GraphonGeometry(EntropyObjective, evals, np.array(targets), m, OptimizerOptions())


def _interior_theta(rng, m):
    c = rng.dirichlet(np.full(m, 2.0))
    c = np.clip(c, 0.05, None)
    c /= c.sum()
    u = rng.uniform(0.05, 0.95, m * (m + 1) // 2)
    return np.concatenate([c, u])[None]


@NEWTON
@given(m=st.integers(1, 6), name=st.sampled_from(sorted(CONSTRAINT_SETS)),
       seed=st.integers(0, 2**32 - 1))
def test_hessian_matches_second_differences_of_the_al(m, name, seed):
    rng = np.random.default_rng(seed)
    geo = _geometry(name, m)
    theta = _interior_theta(rng, m)
    lam, rho = rng.normal(size=(1, 2)), rng.uniform(0.0, 50.0, 1)
    basis = geo._basis(theta)
    hess = geo._hessian(theta, basis, _coords(theta, basis), lam, rho)[0]
    r = basis.shape[2]
    h = 1e-4
    moves = h * np.swapaxes(basis[0], 0, 1)  # (r, d): one step along each column

    def al(rows):
        return geo.grads(rows, np.repeat(lam, len(rows), axis=0), np.repeat(rho, len(rows)))[0]

    # the second difference of the AL value along columns j and k
    signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    rows = np.array([theta[0] + a * moves[j] + b * moves[k]
                     for j in range(r) for k in range(r) for a, b in signs])
    f = al(rows).reshape(r, r, 4)
    fd = (f[..., 0] - f[..., 1] - f[..., 2] + f[..., 3]) / (4.0 * h * h)
    np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(fd).max()))
    np.testing.assert_array_equal(hess, hess.T)


def _theta_on_bounds(rng, m):
    """An interior theta with some masses on _MASS_FLOOR and some values on
    the floor or ceiling."""
    theta = _interior_theta(rng, m)[0]
    c, u = theta[:m], theta[m:]
    floored = rng.uniform(size=m) < 0.4
    floored[np.argmax(c)] = False
    c[floored] = optimizer._MASS_FLOOR
    c[~floored] *= (1.0 - floored.sum() * optimizer._MASS_FLOOR) / c[~floored].sum()
    side = rng.uniform(size=len(u))
    u[side < 0.25] = optimizer._VALUE_FLOOR
    u[side > 0.75] = 1.0 - optimizer._VALUE_FLOOR
    return theta[None]


def test_newton_direction_ascends_and_holds_active_coordinates():
    rng = np.random.default_rng(11)
    held_masses = held_values = 0
    for trial in range(60):
        m = 2 + trial % 4
        geo = _geometry(list(CONSTRAINT_SETS)[trial % len(CONSTRAINT_SETS)], m)
        theta = _theta_on_bounds(rng, m)
        lam, rho = rng.normal(scale=3.0, size=(1, 2)), rng.uniform(0.0, 100.0, 1)
        _, _, grad, _ = geo.grads(theta, lam, rho)
        d = geo.direction(theta, grad, lam, rho)
        basis = geo._basis(theta)
        # d in the reduced coordinates: each column raises its own entry of theta
        x, gr = _coords(theta, basis)[0], _vm(grad, basis)[0]
        step = _coords(theta + d, basis)[0] - x
        assert float(grad[0] @ d[0]) > 0.0
        low, high = x <= geo.near_lo, x >= geo.near_hi
        out = (low & (gr < 0.0)) | (high & (gr > 0.0))
        assert np.all(step[out] == 0.0)
        # nothing on a floor or ceiling moves out, and a step keeps every
        # held coordinate where it is, masses on the floor included
        assert not np.any(low & (step < 0.0)) and not np.any(high & (step > 0.0))
        moved = geo.project(theta + 1e-3 * d)
        assert np.array_equal(_coords(moved, basis)[0][out], x[out])
        held_masses += int(out[: m - 1].sum())
        held_values += int(out[m - 1 :].sum())
    assert held_masses > 0 and held_values > 0


def test_kkt_finish_refuses_a_saddle():
    # the symmetric bipodal at (0.4, 0.07) is a KKT point of m = 2 whose
    # reduced Hessian has a positive direction: the finish keeps it as it is
    cons = ConstraintVector.edge_triangle(0.4, 0.07)
    evals = [DensityEvaluator(pat) for pat in cons.patterns]
    geo = _GraphonGeometry(EntropyObjective, evals, cons.targets, 2, PANEL)
    q = reference_construction(0.4, 0.07)
    theta = geo.start(q.masses[None], q.values[None])
    lam, kkt = _multipliers(q, evals)
    assert kkt <= _KKT_TOL
    basis = geo._basis(theta)
    hess = geo._hessian(theta, basis, _coords(theta, basis), lam[None], np.zeros(1))[0]
    jac = np.array([optimizer._theta_grad(ev, q.masses, q.values) @ basis[0] for ev in evals])
    tangent = np.linalg.svd(jac)[2][len(evals):].T
    assert np.linalg.eigvalsh(tangent.T @ hess @ tangent).max() > 1e-3
    assert not geo._kkt(theta)[1][0]
    obj, g = geo.measure(*geo.point(theta))
    (point, objective, gaps), = geo.finish(theta, g, obj)
    assert np.array_equal(point[0], q.masses) and np.array_equal(point[1], q.values)
    assert objective == obj[0] and np.array_equal(gaps, g[0])
    # a feasible point near the asymmetric maximum is moved onto it
    res = maximize_entropy(cons, 2, PANEL)
    c, p = res.graphon.masses, res.graphon.values
    theta = geo.start(c[None], p[None])
    theta[0, 2] += 1e-9
    obj, g = geo.measure(*geo.point(theta))
    (point, objective, gaps), = geo.finish(theta, g, obj)
    assert np.abs(gaps).max() <= optimizer._KKT_GAP
    assert objective == pytest.approx(res.entropy, abs=1e-12)


def test_a_feasible_row_ascends_to_gtol_and_an_infeasible_one_stops_loosely():
    # two rows near the KKT point at (0.4, 0.05), at rho = 10, where the loose
    # tolerance is _INEXACT_GTOL / 10 = 1e-4: one moved 1e-5 along the
    # constraints' tangent (gaps 7e-12, stationarity 1e-5), one moved across
    # them (gap 2.7e-7, stationarity 1.7e-6)
    cons = ConstraintVector.edge_triangle(0.4, 0.05)
    evals = [DensityEvaluator(pat) for pat in cons.patterns]
    geo = _GraphonGeometry(EntropyObjective, evals, cons.targets, 2, PANEL)
    q = reference_construction(0.4, 0.05)
    lam, kkt = _multipliers(q, evals)
    assert kkt <= _KKT_TOL
    theta = geo.start(q.masses[None], q.values[None])[0]
    # the constraints' gradients in theta, and the masses' sum
    jac = np.array([*(optimizer._theta_grad(ev, q.masses, q.values) for ev in evals),
                    [1.0, 1.0, 0.0, 0.0, 0.0]])
    tangent = np.linalg.svd(jac)[2][-1]
    across = np.linalg.pinv(jac) @ np.array([1.0, 0.0, 0.0])
    rows = np.array([theta + 1e-5 * tangent, theta + 1e-6 * across / np.abs(across).max()])
    lam, rho, tol = np.repeat(lam[None], 2, axis=0), np.full(2, 10.0), PANEL.feasibility_tol
    _, g, grad, _ = geo.grads(rows, lam, rho)
    gaps = np.abs(g).max(axis=1)
    assert gaps[0] < tol <= gaps[1]
    start = geo.stationarity(rows, grad)
    assert (geo.gtol < start).all() and (start < optimizer._INEXACT_GTOL / rho).all()
    np.testing.assert_array_equal(optimizer._gtol(geo, g, rho, tol),
                                  [geo.gtol, optimizer._INEXACT_GTOL / 10.0])
    out, g_out, _ = optimizer._ascend(geo, rows, lam, rho, 300, tol)
    _, g_end, grad_end, _ = geo.grads(out, lam, rho)
    assert np.array_equal(g_end, g_out)
    # the feasible row stayed feasible and went on to gtol; the infeasible
    # one was already stationary to its loose tolerance and did not move
    assert np.abs(g_out[0]).max() < tol
    assert geo.stationarity(out[:1], grad_end[:1])[0] < geo.gtol
    assert np.array_equal(out[1], rows[1])


# above the ER curve: the finished m = 2 optima there are KKT points to the
# certificate's tolerance, so the escalation stops without solving m = 3
ABOVE_CURVE = [(0.35, 0.1), (0.4, 0.1), (0.3, 0.06), (0.45, 0.12), (0.5, 0.15), (0.275, 0.05)]


@pytest.mark.parametrize("eps,tau", ABOVE_CURVE)
def test_above_curve_cells_are_certified_at_m2(eps, tau):
    res = constrained_entropy(ConstraintVector.edge_triangle(eps, tau), OptimizerOptions(n_starts=6, m_max=3))
    assert res.feasible and res.m == 2 and res.podality == 2
    assert res.escalation_stop == "certified"
    assert max(res.residuals) <= 1e-12
