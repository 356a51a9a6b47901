"""Property tests of the batched evaluation and the batched multistart.

The optimizer solves all starts of one podality m (of one permuton
resolution) as one batch, so every evaluator takes a leading batch axis.
These tests check that a batch gives row by row what one-graphon (one-grid)
calls give, and that a start's solution does not depend on the other starts
in its batch.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from phases.gradients import DensityEvaluator, EntropyObjective
from phases.graphon import (
    ConstraintVector,
    StepGraphon,
    SubgraphPattern,
    graphon_entropy,
    subgraph_density,
)
from phases.metrics import connected_patterns
from phases.optimizer import (
    OptimizerOptions,
    _closed_form_candidates,
    _GraphonGeometry,
    _multistart,
    _start_list,
)
from phases.permuton import (
    EXACT_RESOLUTION_CAP,
    PermutonOptimizerOptions,
    StarPattern,
    _PatternDensity,
    _PermutonGeometry,
    project_uniform_marginals,
)

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
KINDS = {"edge", "triangle", "star", "signed2star", "signedsquare", "generic"}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# no shrinking for solves: each example runs two multistarts, and shrinking a
# failure would rerun them for minutes
SOLVES = settings(
    max_examples=8, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate),
)


def test_patterns_cover_every_evaluator_kind():
    assert {DensityEvaluator(p).kind for p in PATTERNS.values()} == KINDS


def random_batch(seed: int, batch: int, m: int, edges: bool):
    """Masses on the simplex and symmetric values in [0,1]; with edges, some
    values sit exactly on 0 or 1, where the entropy's masking applies."""
    rng = np.random.default_rng(seed)
    c = rng.dirichlet(np.full(m, 1.5), size=batch)
    p = rng.uniform(0.0, 1.0, (batch, m, m))
    if edges:
        p[rng.uniform(size=p.shape) < 0.2] = 0.0
        p[rng.uniform(size=p.shape) < 0.2] = 1.0
    return c, np.triu(p) + np.swapaxes(np.triu(p, 1), -1, -2)


def assert_rows_match(objective, c, p, exact=False):
    """Each row of a batch call matches the call on that row alone, to
    1e-12 or, if exact, bit for bit."""
    vals = objective.value(c, p)
    full = objective.value_and_grads(c, p)
    assert vals.shape == (len(c),)
    assert full[1].shape == p.shape and full[2].shape == c.shape
    for i in range(len(c)):
        v = objective.value(c[i], p[i])
        assert isinstance(v, float)
        assert vals[i] == pytest.approx(v, abs=1e-12)
        single = objective.value_and_grads(c[i], p[i])
        assert full[0][i] == pytest.approx(single[0], abs=1e-12)
        np.testing.assert_allclose(full[1][i], single[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(full[2][i], single[2], rtol=0, atol=1e-12)
        if exact:
            assert vals[i] == v and full[0][i] == single[0]
            assert np.array_equal(full[1][i], single[1])
            assert np.array_equal(full[2][i], single[2])


def forced_generic(pattern):
    ev = DensityEvaluator(pattern)
    ev.kind = "generic"
    return ev


# an evaluator per pattern, and each closed-form pattern once more on its plan
EVALUATORS = [DensityEvaluator(p) for p in PATTERNS.values()] + [
    forced_generic(p) for p in PATTERNS.values() if DensityEvaluator(p).kind != "generic"
]


@PROPERTY
@given(
    m=st.integers(1, 6),
    batch=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    edges=st.booleans(),
)
def test_batched_density_matches_rows(m, batch, seed, edges):
    c, p = random_batch(seed, batch, m, edges)
    for ev in EVALUATORS:
        # a plan's row, and a signed square's, is bit for bit the row alone
        assert_rows_match(ev, c, p, exact=ev.kind in ("generic", "signedsquare"))
        for i in range(batch):
            q = StepGraphon(c[i], p[i])
            assert ev.value(c[i], p[i]) == pytest.approx(subgraph_density(q, ev.pattern), abs=1e-12)


@PROPERTY
@given(
    m=st.integers(1, 6),
    batch=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    edges=st.booleans(),
)
def test_batched_entropy_matches_rows(m, batch, seed, edges):
    c, p = random_batch(seed, batch, m, edges)
    assert_rows_match(EntropyObjective, c, p)
    for i in range(batch):
        q = StepGraphon(c[i], p[i])
        assert EntropyObjective.value(c[i], p[i]) == pytest.approx(graphon_entropy(q), abs=1e-12)


@SOLVES
@given(
    m=st.integers(1, 3),
    eps=st.floats(0.2, 0.5),
    ratio=st.floats(0.3, 1.3),
    seed=st.integers(0, 1000),
    row=st.integers(0, 7),
)
def test_start_solution_does_not_depend_on_its_batch(m, eps, ratio, seed, row):
    cons = ConstraintVector.edge_triangle(eps, ratio * eps**3)
    opts = OptimizerOptions(n_starts=8, seed=seed)
    seeds = _closed_form_candidates(cons)
    starts, _ = _start_list(seeds, m, opts, np.random.default_rng(seed))
    starts = starts[:8]
    row = row % len(starts)
    evals = [DensityEvaluator(p) for p in cons.patterns]
    geo = _GraphonGeometry(EntropyObjective, evals, cons.targets, m, opts)
    _, batch_pool = _multistart(geo, starts, [], opts)
    _, alone_pool = _multistart(geo, [starts[row]], [], opts)
    in_batch, alone = batch_pool[row], alone_pool[0]
    assert in_batch["feasible"] == alone["feasible"]
    assert in_batch["objective"] == pytest.approx(alone["objective"], abs=1e-10)
    np.testing.assert_allclose(in_batch["c"], alone["c"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(in_batch["p"], alone["p"], rtol=0, atol=1e-10)


STAR_PATTERNS = ["1", "12", "21", "123", "132", "213", "231", "312", "321", "*2*", "1**", "*1",
                 "2*1"]


def random_grids(seed: int, batch: int, res: int, spread: float) -> np.ndarray:
    """Positive grids (batch, res, res) whose entries span about e^(2 spread)."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(-spread, spread, (batch, res, res)))


@PROPERTY
@given(
    batch=st.integers(1, 8),
    res=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 6.0),
    settled=st.integers(0, 8),
)
def test_batched_projection_matches_rows(batch, res, seed, spread, settled):
    # a batch raises exactly when one of its grids alone does
    def project(x):
        try:
            return project_uniform_marginals(x)
        except ValueError:
            return None

    g = random_grids(seed, batch, res, spread)
    g[:settled] = project_uniform_marginals(g[:settled])  # some rows start in tolerance
    out = project(g)
    alone = [project(g[i]) for i in range(batch)]
    assert (out is None) == any(a is None for a in alone)
    if out is not None:
        assert out.shape == g.shape
        for i in range(batch):
            np.testing.assert_array_equal(out[i], alone[i])


def chain_tensor(k: int, res: int) -> np.ndarray:
    """Weight tensor (res,) * k of weakly increasing cell chains of k points
    on one axis: strict steps weigh 1, a group of s tied points 1/s!."""
    idx = np.meshgrid(*[np.arange(res)] * k, indexing="ij", sparse=True)
    t, run = np.ones((res,) * k), 1
    for prev, cur in zip(idx, idx[1:]):
        run = np.where(cur == prev, run + 1, 1)  # size of the tie group so far
        t = t * (cur >= prev) / run
    return t


def einsum_density(w: np.ndarray, pattern: StarPattern) -> float:
    """The defining sum of an exact pattern density on one grid w = g / r^2,
    contracted by numpy.einsum: k! sum T[a] T[x] prod_t w[a_t, x_(tau_t)]
    over the completions tau, with T the chain tensor."""
    k = pattern.k
    u, v = "abc"[:k], "xyz"[:k]
    chain = chain_tensor(k, len(w))
    total = 0.0
    for tau in pattern.completions():
        subs = ",".join([u[t] + v[tau[t] - 1] for t in range(k)] + [u, v]) + "->"
        total += math.factorial(k) * np.einsum(subs, *[w] * k, chain, chain, optimize=True)
    return total


def einsum_gradient(g: np.ndarray, pattern: StarPattern) -> np.ndarray:
    """The gradient in g of einsum_density(g / r^2): per completion, each of
    the k factors w in turn left out of the contraction, whose output keeps
    that factor's two indices."""
    k, res = pattern.k, len(g)
    u, v = "abc"[:k], "xyz"[:k]
    chain = chain_tensor(k, res)
    out = np.zeros_like(g)
    for tau in pattern.completions():
        ops = [u[t] + v[tau[t] - 1] for t in range(k)]
        for s in range(k):
            subs = ",".join(ops[:s] + ops[s + 1 :] + [u, v]) + "->" + ops[s]
            out += math.factorial(k) * np.einsum(subs, *[g / res**2] * (k - 1), chain, chain)
    return out / res**2


def check_completion_density(density, pattern, g, seed):
    """Each row of a batched call is bit-equal to a one-grid call, matches
    einsum_density to 1e-12 and has the slope of a central difference."""
    res = g.shape[-1]
    vals, grads = density(g, grad=True)
    assert vals.shape == (len(g),) and grads.shape == g.shape
    np.testing.assert_array_equal(density(g)[0], vals)
    direction = np.random.default_rng(seed + 1).normal(size=g.shape)
    h = 1e-4
    for i in range(len(g)):
        val, grad = density(g[i : i + 1], grad=True)
        np.testing.assert_array_equal(val[0], vals[i])
        np.testing.assert_array_equal(grad[0], grads[i])
        assert vals[i] == pytest.approx(einsum_density(g[i] / res**2, pattern), rel=1e-12)
        up, down = (density((g[i] + s * h * direction[i])[None])[0][0] for s in (1.0, -1.0))
        slope = np.sum(grad[0] * direction[i])
        assert (up - down) / (2 * h) == pytest.approx(slope, rel=1e-6, abs=1e-9)


@PROPERTY
@given(
    name=st.sampled_from(STAR_PATTERNS),
    batch=st.integers(1, 8),
    res=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_completion_density_matches_rows_and_differences(name, batch, res, seed):
    pattern = StarPattern.parse(name)
    check_completion_density(_PatternDensity(pattern, res), pattern,
                             random_grids(seed, batch, res, 1.0), seed)


@pytest.mark.parametrize("res", [20, EXACT_RESOLUTION_CAP])
@pytest.mark.parametrize("name", STAR_PATTERNS)
def test_completion_density_at_solver_resolutions(name, res):
    # 20 is perfbench's perm_res, EXACT_RESOLUTION_CAP the largest accepted
    pattern = StarPattern.parse(name)
    check_completion_density(_PatternDensity(pattern, res), pattern,
                             random_grids(res, 16, res, 1.0), res)


@SOLVES
@given(
    name=st.sampled_from(["12", "123", "*2*"]),
    target=st.floats(0.2, 0.8),
    res=st.integers(2, 6),
    seed=st.integers(0, 1000),
    row=st.integers(0, 7),
)
def test_permuton_start_solution_does_not_depend_on_its_batch(name, target, res, seed, row):
    pattern = StarPattern.parse(name)
    if pattern.k == 3:  # about the uniform permuton's 1/6 and 1/3, as 0.5 is for 12
        target /= 3.0 if pattern.is_plain else 1.5
    opts = PermutonOptimizerOptions(n_starts=8, seed=seed)
    geo = _PermutonGeometry([(pattern, target)], res)
    grids = project_uniform_marginals(random_grids(seed, 7, res, 0.8))
    starts = [(np.ones((res, res)),)] + [(g,) for g in grids]
    _, batch_pool = _multistart(geo, starts, [], opts)
    _, alone_pool = _multistart(geo, [starts[row]], [], opts)
    in_batch, alone = batch_pool[row], alone_pool[0]
    assert in_batch["feasible"] == alone["feasible"]
    assert in_batch["objective"] == alone["objective"]
    np.testing.assert_array_equal(in_batch["g"], alone["g"])
