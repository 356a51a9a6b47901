import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phases.gradients import DensityEvaluator, EntropyObjective, mass_chain_rule
from phases.graphon import StepGraphon, SubgraphPattern, graphon_entropy, subgraph_density
from phases.metrics import connected_patterns
from phases.optimizer import _MASS_FLOOR

PATTERNS = {
    "edge": SubgraphPattern.edge(),
    "triangle": SubgraphPattern.triangle(),
    "2star": SubgraphPattern.star(2),
    "3star": SubgraphPattern.star(3),
    "t1": SubgraphPattern.signed_two_star(),
    "t2": SubgraphPattern.signed_square(),
    "4cycle": SubgraphPattern.cycle(4),
    "4cycle-absent": SubgraphPattern(4, ((1, 2), (2, 3), (3, 4)), ((1, 4),)),
    "isolated": SubgraphPattern(3, ((1, 2),)),
    "vertex": SubgraphPattern(1, ()),
    "5signed": SubgraphPattern(5, ((1, 2), (2, 3), (3, 4), (4, 5)), ((1, 5), (2, 4))),
    **{f"H{i}": h for i, h in enumerate(connected_patterns(5), 1)},
}


def random_interior_point(rng, m):
    c = rng.dirichlet(np.full(m, 2.0))
    c = np.clip(c, 0.02, None)
    c /= c.sum()
    p = rng.uniform(0.1, 0.9, (m, m))
    return c, (p + p.T) / 2.0


def fd_check(value_fn, c, p, dv, dc, h=1e-5):
    """Max relative error of analytic vs central-difference gradients; value
    entries are perturbed symmetrically, masses through renormalization."""
    m = c.shape[0]
    analytic = []
    numeric = []
    for a in range(m):
        for b in range(a, m):
            pp, pm = p.copy(), p.copy()
            pp[a, b] += h
            pp[b, a] = pp[a, b]
            pm[a, b] -= h
            pm[b, a] = pm[a, b]
            numeric.append((value_fn(c, pp) - value_fn(c, pm)) / (2 * h))
            analytic.append(dv[a, b])
    gw = mass_chain_rule(c, dc)
    for a in range(m):
        wp, wm = c.copy(), c.copy()
        wp[a] += h
        wm[a] -= h
        numeric.append(
            (value_fn(wp / wp.sum(), p) - value_fn(wm / wm.sum(), p)) / (2 * h)
        )
        analytic.append(gw[a])
    analytic = np.array(analytic)
    numeric = np.array(numeric)
    scale = max(1e-12, float(np.abs(analytic).max()))
    return float(np.abs(analytic - numeric).max()) / scale


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_fast_path_matches_generic_value(name, rng):
    pat = PATTERNS[name]
    ev = DensityEvaluator(pat)
    generic = DensityEvaluator(pat)
    generic.kind = "generic"
    for _ in range(10):
        c, p = random_interior_point(rng, int(rng.integers(1, 6)))
        assert ev.value(c, p) == pytest.approx(generic.value(c, p), abs=1e-13)


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_fast_path_matches_generic_grads(name, rng):
    pat = PATTERNS[name]
    ev = DensityEvaluator(pat)
    generic = DensityEvaluator(pat)
    generic.kind = "generic"
    for _ in range(5):
        c, p = random_interior_point(rng, 3)
        v1, dv1, dc1 = ev.value_and_grads(c, p)
        v2, dv2, dc2 = generic.value_and_grads(c, p)
        assert v1 == pytest.approx(v2, abs=1e-13)
        assert np.abs(dv1 - dv2).max() < 1e-12
        # raw mass gradients are only defined up to an additive constant
        # (simplex gauge); the chain-ruled gradients must agree
        assert np.abs(mass_chain_rule(c, dc1) - mass_chain_rule(c, dc2)).max() < 1e-12


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_pattern_gradients_match_finite_differences(name, rng):
    pat = PATTERNS[name]
    ev = DensityEvaluator(pat)
    for _ in range(10):
        c, p = random_interior_point(rng, int(rng.integers(2, 5)))
        _, dv, dc = ev.value_and_grads(c, p)
        if pat.all_edges:
            assert fd_check(ev.value, c, p, dv, dc) < 1e-5
        else:
            # t = sum(c) is 1 on the simplex: its gradient is zero there, so a
            # relative difference error has no scale; check d/dc = 1 exactly
            assert not dv.any() and np.array_equal(dc, np.ones_like(c))


def test_entropy_gradients_match_finite_differences(rng):
    for _ in range(10):
        c, p = random_interior_point(rng, int(rng.integers(2, 5)))
        _, dv, dc = EntropyObjective.value_and_grads(c, p)
        assert fd_check(EntropyObjective.value, c, p, dv, dc) < 1e-5


def test_evaluator_agrees_with_module_functions(rng):
    c, p = random_interior_point(rng, 3)
    q = StepGraphon(c, p)
    for pat in PATTERNS.values():
        assert DensityEvaluator(pat).value(c, p) == pytest.approx(
            subgraph_density(q, pat), abs=1e-12
        )
    assert EntropyObjective.value(c, p) == pytest.approx(graphon_entropy(q), abs=1e-12)


def test_plans_run_without_einsum(monkeypatch, rng):
    """A generic pattern (the 4-cycle has no closed form) is evaluated by its
    compiled plan: no per-call path planning and no einsum."""

    def banned(*args, **kwargs):
        raise AssertionError("einsum called while evaluating a plan")

    monkeypatch.setattr(np, "einsum_path", banned)
    monkeypatch.setattr(np, "einsum", banned)
    c = rng.dirichlet(np.ones(5), size=8)
    p = rng.uniform(size=(8, 5, 5))
    p = (p + np.swapaxes(p, 1, 2)) / 2.0
    ev = DensityEvaluator(SubgraphPattern.cycle(4))
    assert ev.kind == "generic"
    val, dv, dc = ev.value_and_grads(c, p)
    assert val.shape == (8,) and dv.shape == (8, 5, 5) and dc.shape == (8, 5)



@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), on_bounds=st.booleans())
def test_signed_square_is_at_least_its_diagonal_terms(m, seed, on_bounds):
    """t2 = sum over blocks a, b, c, d of c_a c_b c_c c_d p_ab (1 - p_bc)
    p_cd (1 - p_da), every term nonnegative; the terms with c = a and d = b
    give t2 >= sum_ab c_a^2 c_b^2 (p_ab (1 - p_ab))^2 >= 0, so t2 = 0 forces
    every value into {0, 1} (see bounded_signed_max).  Checked on the
    closed form and on subgraph_density, up to rounding."""
    rng = np.random.default_rng(seed)
    c = rng.dirichlet(np.full(m, 1.5))
    p = rng.uniform(size=(m, m))
    if on_bounds:
        p[rng.uniform(size=p.shape) < 0.3] = 0.0
        p[rng.uniform(size=p.shape) < 0.3] = 1.0
    p = np.triu(p) + np.triu(p, 1).T
    square = SubgraphPattern.signed_square()
    bound = float(np.sum(np.outer(c, c) ** 2 * (p * (1.0 - p)) ** 2))
    q = StepGraphon(c, p)
    for t2 in (DensityEvaluator(square).value(c, p), subgraph_density(q, square)):
        assert t2 >= bound * (1.0 - 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 12), batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       on_bounds=st.booleans(), labels=st.permutations([1, 2, 3, 4]))
def test_signed_square_kernel_matches_plan_and_einsum(m, batch, seed, on_bounds, labels):
    """The signed square's closed form over bounded_signed_max's range m =
    1..12: within 1e-12 of the plan (value, dV and the raw dc) and of
    subgraph_density; with on_bounds, values sit exactly on 0 and 1 and
    masses on _MASS_FLOOR.  Each row is bit for bit its single-row call.
    Any labelling of the vertices is recognised."""
    rng = np.random.default_rng(seed)
    c = rng.dirichlet(np.full(m, 1.5), size=batch)
    p = rng.uniform(size=(batch, m, m))
    if on_bounds:
        for row in c:
            floored = rng.uniform(size=m) < 0.4
            floored[np.argmax(row)] = False
            row[~floored] *= (1.0 - floored.sum() * _MASS_FLOOR) / row[~floored].sum()
            row[floored] = _MASS_FLOOR
        p[rng.uniform(size=p.shape) < 0.25] = 0.0
        p[rng.uniform(size=p.shape) < 0.25] = 1.0
    p = np.triu(p) + np.swapaxes(np.triu(p, 1), -1, -2)
    square = SubgraphPattern.signed_square()
    t2 = SubgraphPattern(4, *([(labels[u - 1], labels[v - 1]) for u, v in edges]
                              for edges in (square.edges, square.absent)))
    ev, plan = DensityEvaluator(t2), DensityEvaluator(t2)
    plan.kind = "generic"
    assert ev.kind == "signedsquare"
    val, dv, dc = ev.value_and_grads(c, p)
    expect = plan.value_and_grads(c, p)
    for got, want in zip((val, dv, dc), expect):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(ev.value(c, p), val)
    for i in range(batch):
        assert ev.value(c[i], p[i]) == val[i]
        single = ev.value_and_grads(c[i], p[i])
        assert single[0] == val[i]
        assert np.array_equal(single[1], dv[i]) and np.array_equal(single[2], dc[i])
        q = StepGraphon(c[i], p[i])
        assert ev.value(q.masses, q.values) == pytest.approx(
            subgraph_density(q, t2), abs=1e-12)
