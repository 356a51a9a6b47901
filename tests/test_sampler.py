import functools
import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from phases import sampler
from phases.graphon import ConstraintVector, FiniteGraph, StepGraphon, SubgraphPattern, finite_density
from phases.optimizer import reference_construction
from phases.sampler import (
    ChainConfig,
    SamplerInitError,
    _classify,
    _DensityTracker,
    _initial_graphon,
    _sample_from_graphon,
    _violation,
    enumerate_Z,
    estimate_block_structure,
    sample_constrained,
)

EDGE = SubgraphPattern.edge()
TRI = SubgraphPattern.triangle()


def edge_only(target, delta):
    return ConstraintVector(((EDGE, target),), delta)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# each example runs two chains; shrinking a failure would rerun them for minutes
CHAINS = settings(
    max_examples=30, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate),
)
CHAIN_PATTERNS = {
    "edge-triangle": (EDGE, TRI),
    "edge-2star": (EDGE, SubgraphPattern.star(2)),
    "3star": (SubgraphPattern.star(3),),
    "edge-4cycle": (EDGE, SubgraphPattern.cycle(4)),  # generic: recounted
    "edge-2star-4cycle": (EDGE, SubgraphPattern.star(2), SubgraphPattern.cycle(4)),
    "edge-edge-triangle": (EDGE, EDGE, TRI),  # a repeat: both windows hold
    "edge": (EDGE,),  # no triangle window
    "triangle": (TRI,),  # no edge window
}


ENUM_PATTERNS = {
    "edge": EDGE, "triangle": TRI, "2star": SubgraphPattern.star(2),
    "3star": SubgraphPattern.star(3), "4cycle": SubgraphPattern.cycle(4),
    "4path": SubgraphPattern.path(4),
}


@functools.cache
def _all_graphs(n):
    """(edge count, triangle count, {pattern: density}) of every labeled graph
    on n nodes, the densities of the ENUM_PATTERNS that fit in n nodes."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        g = FiniteGraph.from_edges(n, [pair for b, pair in enumerate(pairs) if mask >> b & 1])
        dens = {pat: finite_density(g, pat) for pat in ENUM_PATTERNS.values() if pat.k <= n}
        triangles = int(dens[TRI] * math.comb(n, 3)) if n >= 3 else 0
        out.append((g.edge_count, triangles, dens))
    return out


def random_graph(n, p, rng):
    adj = np.triu((rng.random((n, n)) < p).astype(np.int32), 1)
    return adj + adj.T


def direct_kmeans(rows, m, seed):
    """The reference k-means: k-means++ seeding and Lloyd's algorithm on
    direct sums of (r - c)^2, one restart after another.  Returns the ten
    seedings, the objective and labels of the first restart within 1e-12 of
    the best, and the smallest relative gap, over every row and iteration,
    between a row's nearest center and the nearest center that differs from
    it.  Iterations whose centers are all 0/1 rows are left out of the gap:
    there both distance forms are exact integers and break ties alike."""
    n = rows.shape[0]
    rng = np.random.default_rng(seed)
    seedings, best, gap = [], None, np.inf
    for _ in range(10):
        centers = [rows[int(rng.integers(n))]]
        while len(centers) < m:
            d2 = np.min([((rows - c) ** 2).sum(axis=1) for c in centers], axis=0)
            total = d2.sum()
            if total <= 0:
                centers.append(centers[0])
                continue
            centers.append(rows[int(rng.choice(n, p=d2 / total))])
        centers = np.array(centers, dtype=float)
        seedings.append(centers.copy())
        labels = None
        for _it in range(100):
            d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            if not np.array_equal(centers, np.round(centers)):
                differs = np.any(centers[:, None] != centers[None], axis=2)[new_labels]
                nearest = d2[np.arange(n), new_labels]
                rival = np.where(differs, d2, np.inf).min(axis=1)
                rel = (rival - nearest) / np.where(np.isfinite(rival), rival, 1.0)
                gap = min(gap, float(rel.min()))
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for k in range(m):
                mask = labels == k
                if mask.any():
                    centers[k] = rows[mask].mean(axis=0)
        d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        obj = float(d2[np.arange(n), labels].sum())
        if best is None or obj < best[0] - 1e-12:
            best = (obj, labels.copy())
    return seedings, best[0], best[1], gap


def block_means(adj, labels):
    """Block masses and edge frequencies of a labelling, block by block."""
    n = adj.shape[0]
    blocks = [np.flatnonzero(labels == k) for k in np.unique(labels)]
    values = np.empty((len(blocks), len(blocks)))
    for a, ia in enumerate(blocks):
        for b, ib in enumerate(blocks):
            pairs = len(ia) * len(ib) - (len(ia) if a == b else 0)
            values[a, b] = adj[np.ix_(ia, ib)].sum() / max(pairs, 1)
        if len(ia) == 1:
            values[a, a] = adj[ia[0]].sum() / max(n - 1, 1)
    return np.array([len(ia) for ia in blocks]) / n, values


def single_proposal_chain(cfg):
    """The reference chain: two scalar draws per proposal, and each proposal
    decided on an exact recount of the toggled graph."""
    n, cons = cfg.n, cfg.constraints
    _, denoms, windows = _classify(cons, n)

    def counts(adj):
        g = FiniteGraph(adj)
        return [int(finite_density(g, p) * d) for p, d in zip(cons.patterns, denoms)]

    def densities(adj):
        return np.array([c / d for c, d in zip(counts(adj), denoms)])

    def inside(adj):
        return all(lo <= c <= hi for c, (lo, hi) in zip(counts(adj), windows))

    def toggled(adj, u, v):
        out = adj.copy()
        out[u, v] = out[v, u] = 1 - out[u, v]
        return out

    def propose():
        u = int(rng.integers(n))
        v = int(rng.integers(n - 1))
        return u, v + (v >= u)

    rng = np.random.default_rng(cfg.seed)
    adj = _sample_from_graphon(_initial_graphon(cons), n, rng)
    score = _violation(densities(adj), cons.targets, cons.delta)
    budget = 40 * n * n
    while score > 0.0 and budget > 0:
        budget -= 1
        cand_adj = toggled(adj, *propose())
        cand = _violation(densities(cand_adj), cons.targets, cons.delta)
        if cand < score - 1e-15:
            adj, score = cand_adj, cand
    if not inside(adj):
        raise SamplerInitError("repair failed")
    # the chain ends at its last sample, burn_in + (n_samples - 1) interval,
    # and runs at least one proposal; with no samples it only burns in
    if cfg.n_samples:
        total = max(1, cfg.burn_in_steps + (cfg.n_samples - 1) * cfg.interval_steps)
    else:
        total = cfg.burn_in_steps
    graphs, rows = [], []
    accepted = since_accept = 0
    stalled = False
    next_sample = cfg.burn_in_steps
    for step in range(1, total + 1):
        cand_adj = toggled(adj, *propose())
        if inside(cand_adj):
            adj = cand_adj
            accepted += 1
            since_accept = 0
        else:
            since_accept += 1
            stalled = stalled or since_accept >= n * (n - 1) // 2
        while step >= next_sample and len(graphs) < cfg.n_samples:
            graphs.append(adj.copy())
            rows.append(densities(adj))
            next_sample += cfg.interval_steps
    return graphs, np.array(rows), accepted / total, stalled


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

    @pytest.mark.parametrize("burn_in, interval", [(-100, 10), (100, -1), (-1, -1)])
    def test_rejects_negative_schedule(self, burn_in, interval):
        with pytest.raises(ValueError, match=">= 0"):
            ChainConfig(n=10, constraints=edge_only(0.5, 0.1), burn_in=burn_in,
                        sample_interval=interval, n_samples=2)

    @pytest.mark.parametrize("field, value", [
        ("n", 10.5), ("n", True), ("n", None), ("burn_in", 10.5), ("sample_interval", 2.0),
        ("n_samples", 2.5), ("n_samples", "3"),
    ])
    def test_rejects_a_count_that_is_not_an_integer(self, field, value):
        # a float ran until the chain failed with "'float' object cannot be
        # interpreted as an integer", naming no field
        fields = {"n": 10, "constraints": edge_only(0.5, 0.1), "burn_in": 50,
                  "sample_interval": 20, "n_samples": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            ChainConfig(**fields)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        # NumPy refused both inside the chain, naming no field
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            ChainConfig(n=10, constraints=edge_only(0.5, 0.1), seed=seed)

    def test_accepts_numpy_integers_and_the_default_schedule(self):
        cfg = ChainConfig(n=np.int64(10), constraints=edge_only(0.5, 0.1),
                          n_samples=np.int32(2))
        assert (cfg.burn_in_steps, cfg.interval_steps, cfg.total_steps) == (5000, 100, 5100)

    def test_rejects_a_chain_without_proposals(self):
        with pytest.raises(ValueError, match="no proposals"):
            ChainConfig(n=10, constraints=edge_only(0.5, 0.1), burn_in=0, sample_interval=0)
        with pytest.raises(ValueError, match="no proposals"):
            ChainConfig(n=10, constraints=edge_only(0.5, 0.1), burn_in=0, n_samples=0)
        with pytest.raises(ValueError, match=">= 0"):
            ChainConfig(n=10, constraints=edge_only(0.5, 0.1), n_samples=-1)

    def test_accepts_a_chain_that_only_burns_in_or_only_samples(self):
        cons = edge_only(0.5, 0.1)
        run = sample_constrained(ChainConfig(n=10, constraints=cons, burn_in=50,
                                             sample_interval=0, n_samples=1))
        assert len(run) == 1 and 0.0 <= run.acceptance_rate <= 1.0
        run = sample_constrained(ChainConfig(n=10, constraints=cons, burn_in=0,
                                             sample_interval=20, n_samples=2))
        assert len(run) == 2 and 0.0 <= run.acceptance_rate <= 1.0
        # with no interval, every sample is taken at the end of the burn-in
        run = sample_constrained(ChainConfig(n=10, constraints=cons, burn_in=50,
                                             sample_interval=0, n_samples=2))
        assert len(run) == 2
        assert np.array_equal(run.graphs[0].adjacency, run.graphs[1].adjacency)
        # a chain that only burns in retains nothing
        run = sample_constrained(ChainConfig(n=10, constraints=cons, burn_in=50,
                                             sample_interval=20, n_samples=0))
        assert len(run) == 0 and run.densities.shape == (0, 1)
        assert 0.0 <= run.acceptance_rate <= 1.0

    @pytest.mark.parametrize("burn_in, interval, n_samples, proposals", [
        (50, 20, 3, 90), (50, 20, 1, 50), (50, 20, 0, 50), (0, 20, 1, 1), (0, 20, 3, 40),
        (50, 0, 2, 50),
    ])
    def test_chain_ends_at_its_last_sample(self, monkeypatch, burn_in, interval, n_samples,
                                           proposals):
        # the chain draws its proposals as pairs of array-bound integers; the
        # repair before it draws scalar-bound ones
        drawn = 0
        default_rng = np.random.default_rng

        class CountedGenerator:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def integers(self, bounds, *args, **kwargs):
                nonlocal drawn
                if isinstance(bounds, np.ndarray):
                    drawn += len(bounds) // 2
                return self.rng.integers(bounds, *args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", CountedGenerator)
        cfg = ChainConfig(n=10, constraints=edge_only(0.5, 0.1), seed=4, burn_in=burn_in,
                          sample_interval=interval, n_samples=n_samples)
        run = sample_constrained(cfg)
        assert cfg.total_steps == drawn == proposals
        assert len(run) == n_samples

    @pytest.mark.parametrize("n, terms, delta, seed, burn_in, interval, n_samples, digest", [
        (12, ((EDGE, 0.5), (TRI, 0.1)), 0.05, 7, 100, 30, 3, "4745248dd0b8ac64"),
        (10, ((SubgraphPattern.star(2), 0.3), (EDGE, 0.5)), 0.1, 3, 50, 17, 4,
         "404a4f461bb3f782"),
        (8, ((EDGE, 0.5), (SubgraphPattern.cycle(4), 0.1)), 0.2, 5, 20, 25, 2,
         "3a371774ff82da0c"),
    ])
    def test_retained_samples_unchanged_by_the_shorter_chain(
        self, n, terms, delta, seed, burn_in, interval, n_samples, digest
    ):
        # digests of the retained graphs and densities read from chains that
        # ran one interval past their last sample: ending there changes the
        # acceptance rate, not the samples
        run = sample_constrained(ChainConfig(
            n=n, constraints=ConstraintVector(terms, delta), seed=seed, burn_in=burn_in,
            sample_interval=interval, n_samples=n_samples))
        h = hashlib.sha256()
        for g in run.graphs:
            h.update(np.ascontiguousarray(g.adjacency, dtype=np.int64).tobytes())
        h.update(run.densities.tobytes())
        assert h.hexdigest()[:16] == digest


class TestSampleConstrained:
    def test_bench_shape_chain_unchanged(self):
        # the digest was read from the chain that kept the codegree matrix
        # A @ A; the bitset tracker must retain the same samples
        run = sample_constrained(ChainConfig(
            n=150, constraints=ConstraintVector.edge_triangle(0.5, 0.1, 0.01), seed=3,
            burn_in=3000, sample_interval=1500, n_samples=2))
        h = hashlib.sha256()
        for g in run.graphs:
            h.update(np.ascontiguousarray(g.adjacency, dtype=np.int64).tobytes())
        h.update(run.densities.tobytes())
        assert h.hexdigest() == "d4d30bcb00f431d3edd57415eeebb54abb92e9601c447d1fdb286685ae35094e"
        assert run.acceptance_rate == 9230 / 15000
        assert not run.stalled

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
            (lo, hi), = _classify(ConstraintVector(((pat, target),), 0.01), n)[2]
            assert not lo <= on_edge <= hi
            assert lo <= inside <= hi

    def test_init_failure_is_explicit(self):
        # an empty window that greedy repair cannot reach
        cons = ConstraintVector(((EDGE, 0.5), (TRI, 0.9)), 0.001)
        with pytest.raises(SamplerInitError):
            sample_constrained(ChainConfig(n=12, constraints=cons, seed=1, n_samples=1))

    def test_only_counted_kinds_scale_past_the_generic_cap(self):
        # edge, triangle and k-star counts are updated per toggle; any other
        # pattern is recounted and capped in n, the signed 2-star and the
        # signed square (closed forms of the optimizer only) included
        adj = np.zeros((31, 31), dtype=np.int8)
        star = ConstraintVector(((SubgraphPattern.star(3), 0.1),), 0.05)
        assert _DensityTracker(adj, star).kinds == [("star", 3)]
        signed = (SubgraphPattern.signed_two_star(), SubgraphPattern.signed_square())
        for pat in (SubgraphPattern.cycle(4), *signed):
            with pytest.raises(ValueError, match="n <= 30"):
                _DensityTracker(adj, ConstraintVector(((pat, 0.1),), 0.05))
        tracker = _DensityTracker(adj[:5, :5], ConstraintVector(
            ((SubgraphPattern.cycle(4), 0.1),), 0.05))
        assert tracker.kinds == [("generic", 0)]
        # a pattern with absent edges is refused when the tracker is built,
        # as enumerate_Z refuses it, not at the first count
        for pat in signed:
            with pytest.raises(ValueError, match="must be all-present patterns"):
                _DensityTracker(adj[:5, :5], ConstraintVector(((pat, 0.1),), 0.05))


class TestBlockChain:
    """The chain draws proposals in blocks and reads common neighbours from
    neighbourhood bitsets; it must be the single-proposal chain, sample for
    sample."""

    @PROPERTY
    @given(
        n=st.integers(2, 300),
        pairs=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=150, pairs=1024, seed=109307645)
    @example(n=200, pairs=1024, seed=5)
    def test_block_draws_equal_alternating_scalar_draws(self, n, pairs, seed):
        # if a NumPy release changes how per-element bounds consume the
        # generator, chains would silently change; this fails instead
        block_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = block_rng.integers(np.tile([n, n - 1], pairs)).tolist()
        scalar = []
        for _ in range(pairs):
            scalar += [int(scalar_rng.integers(n)), int(scalar_rng.integers(n - 1))]
        assert block == scalar
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state

    @PROPERTY
    @given(
        n=st.integers(4, 30),
        p=st.floats(0.0, 1.0),
        toggles=st.integers(0, 80),
        seed=st.integers(0, 2**32 - 1),
        cycle=st.booleans(),
    )
    # past one and three 64-bit words, and the bench's chain sizes; a
    # generic pattern, recounted on the toggled matrix
    @example(n=65, p=0.5, toggles=80, seed=1, cycle=False)
    @example(n=150, p=0.5, toggles=80, seed=2, cycle=False)
    @example(n=200, p=0.3, toggles=80, seed=3, cycle=False)
    @example(n=12, p=0.5, toggles=80, seed=4, cycle=True)
    def test_bitsets_track_toggles(self, n, p, toggles, seed, cycle):
        rng = np.random.default_rng(seed)
        terms = ((EDGE, 0.5), (TRI, 0.1), (SubgraphPattern.star(2), 0.2),
                 (SubgraphPattern.star(3), 0.1))
        if cycle:  # its recount is slow; keep the graph small
            n, terms = min(n, 12), terms + ((SubgraphPattern.cycle(4), 0.1),)
        cons = ConstraintVector(terms, 0.05)
        adj = random_graph(n, p, rng)
        tracker = _DensityTracker(adj, cons)
        for _ in range(toggles):
            u, v = rng.choice(n, 2, replace=False).tolist()
            toggled = tracker.counts((u, v))
            tracker.apply_toggle(u, v)
            adj[u, v] = adj[v, u] = 1 - adj[u, v]
            assert tracker.counts() == toggled
        assert tracker.rows == [sum(1 << v for v in np.flatnonzero(row).tolist()) for row in adj]
        assert np.array_equal(tracker.adjacency(), adj)
        rows = tracker.rows
        common = [[(rows[u] & rows[v]).bit_count() for v in range(n)] for u in range(n)]
        assert np.array_equal(np.array(common), adj @ adj)
        assert [row.bit_count() for row in rows] == adj.sum(axis=1).tolist()
        assert tracker.counts() == _DensityTracker(adj.copy(), cons).counts()

    @CHAINS
    @given(
        name=st.sampled_from(sorted(CHAIN_PATTERNS)),
        n=st.integers(4, 14),
        p=st.floats(0.15, 0.85),
        delta=st.sampled_from([0.05, 0.1, 0.2]),
        burn_in=st.integers(1, 1500),
        interval=st.integers(0, 200),
        n_samples=st.integers(1, 4),
        block=st.sampled_from([1, 3, 1024]),
        seed=st.integers(0, 2**32 - 1),
    )
    # runs of exactly n (n - 1) / 2 rejections, the shortest that set
    # stalled, between two accepted toggles and at the end of the chain;
    # then longest runs one shorter, between accepts and at the end, which
    # must not; a 4-cycle window that rejects some toggles, and one next to
    # a 2-star window; an edge window alone and a triangle window alone;
    # last, bitsets of two 64-bit words
    @example(name="3star", n=5, p=0.3688549474916448, delta=0.05, burn_in=26,
             interval=46, n_samples=2, block=3, seed=2988995438)
    @example(name="edge-triangle", n=6, p=0.6765504518087084, delta=0.1, burn_in=186,
             interval=17, n_samples=1, block=1024, seed=3671383834)
    @example(name="edge-edge-triangle", n=8, p=0.7334171910537831, delta=0.05, burn_in=35,
             interval=143, n_samples=2, block=3, seed=2925526738)
    @example(name="3star", n=7, p=0.5515503324461193, delta=0.05, burn_in=167,
             interval=26, n_samples=1, block=1024, seed=1680050045)
    @example(name="edge-2star", n=8, p=0.23132703561747345, delta=0.05, burn_in=110,
             interval=90, n_samples=2, block=3, seed=137923500)
    @example(name="edge-4cycle", n=7, p=0.7614874117773833, delta=0.2, burn_in=8,
             interval=100, n_samples=4, block=1024, seed=564533598)
    @example(name="edge-2star-4cycle", n=8, p=0.7, delta=0.05, burn_in=150, interval=60,
             n_samples=3, block=3, seed=2)
    @example(name="edge", n=9, p=0.5, delta=0.05, burn_in=300, interval=40, n_samples=3,
             block=3, seed=11)
    @example(name="triangle", n=9, p=0.5, delta=0.05, burn_in=300, interval=40, n_samples=3,
             block=3, seed=11)
    @example(name="edge-triangle", n=70, p=0.3, delta=0.002, burn_in=300, interval=100,
             n_samples=2, block=1024, seed=8)
    def test_chain_equals_single_proposal_chain(
        self, name, n, p, delta, burn_in, interval, n_samples, block, seed
    ):
        patterns = CHAIN_PATTERNS[name]
        if SubgraphPattern.cycle(4) in patterns:  # its recount is slow; keep the chain short
            n, burn_in = min(n, 8), burn_in // 10 + 1
        # targets at the densities of a random graph, so the windows hold
        # one; a repeated pattern's window is shifted by half its width
        g = FiniteGraph(random_graph(n, p, np.random.default_rng(seed)))
        terms = []
        for pat in patterns:
            shift = delta / 2 if pat in [q for q, _ in terms] else 0.0
            terms.append((pat, min(1.0, float(finite_density(g, pat)) + shift)))
        cons = ConstraintVector(tuple(terms), delta)
        cfg = ChainConfig(
            n=n, constraints=cons, seed=seed, burn_in=burn_in,
            sample_interval=interval, n_samples=n_samples,
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_BLOCK", block)
            try:
                graphs, rows, acceptance, stalled = single_proposal_chain(cfg)
            except SamplerInitError:
                with pytest.raises(SamplerInitError):
                    sample_constrained(cfg)
                return
            run = sample_constrained(cfg)
        assert len(run.graphs) == len(graphs)
        for got, want in zip(run.graphs, graphs):
            assert np.array_equal(got.adjacency, want)
        assert np.array_equal(run.densities, rows)
        assert run.acceptance_rate == acceptance
        assert run.stalled == stalled


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


    @PROPERTY
    @given(
        n=st.integers(2, 40),
        m=st.integers(1, 8),
        p=st.floats(0.0, 1.0),
        types=st.integers(0, 6),
        graph_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 5),
    )
    @example(n=40, m=8, p=0.5, types=0, graph_seed=1, seed=0)
    @example(n=30, m=4, p=0.5, types=3, graph_seed=2, seed=1)
    @example(n=12, m=5, p=0.3, types=2, graph_seed=3, seed=2)
    def test_gram_kmeans_matches_direct_kmeans(self, n, m, p, types, graph_seed, seed):
        # types > 0: a blow-up with independent classes, whose nodes of one
        # type share an adjacency row
        m = min(m, n)
        rng = np.random.default_rng(graph_seed)
        if types:
            kind = rng.integers(types, size=n)
            adj = random_graph(types, p, rng)[np.ix_(kind, kind)]
        else:
            adj = random_graph(n, p, rng)
        rows = adj.astype(float)
        est = estimate_block_structure(FiniteGraph(adj), m, seed=seed)
        seedings, objective, labels, gap = direct_kmeans(rows, m, seed)
        # the seedings draw alike, distance ties or not
        draw = np.random.default_rng(seed)
        for want in seedings:
            assert np.array_equal(rows[sampler._kmeanspp(rows, rows.sum(axis=1), m, draw)], want)
        if gap > 1e-9:
            want = StepGraphon(*block_means(adj, labels))
            assert np.array_equal(est.labels, labels)
            assert est.objective == objective
            assert np.array_equal(est.graphon.masses, want.masses)
            assert np.array_equal(est.graphon.values, want.values)
        # a Lloyd fixed point: each node's cluster mean is a nearest one, and
        # the objective is the sum of squares about the cluster means
        kinds, own = np.unique(est.labels, return_inverse=True)
        means = np.array([rows[est.labels == k].mean(axis=0) for k in kinds])
        d2 = ((rows[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.all(d2[np.arange(n), own] <= d2.min(axis=1) + 1e-9 * np.maximum(d2.min(axis=1), 1.0))
        assert est.objective == pytest.approx(d2[np.arange(n), own].sum(), rel=1e-9, abs=1e-9)

    def test_two_row_types_fill_two_of_four_clusters(self):
        # K_{3,3} has two distinct rows: seeding picks one of each, then
        # repeats the first, and the two empty clusters are dropped
        g = FiniteGraph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        rows = g.adjacency.astype(float)
        rng = np.random.default_rng(0)
        for _ in range(10):
            picks = sampler._kmeanspp(rows, rows.sum(axis=1), 4, rng)
            assert (picks[0] < 3) != (picks[1] < 3)
            assert picks[2:] == [picks[0], picks[0]]
        est = estimate_block_structure(g, 4, seed=0)
        assert est.graphon.m == 2
        assert est.objective == 0.0
        assert np.array_equal(est.graphon.masses, [0.5, 0.5])
        assert np.array_equal(est.graphon.values, [[0.0, 1.0], [1.0, 0.0]])

    def test_seeding_repeats_the_first_center_when_every_row_is_one(self):
        g = FiniteGraph.empty(6)
        rows = g.adjacency.astype(float)
        rng = np.random.default_rng(0)
        for _ in range(10):
            picks = sampler._kmeanspp(rows, rows.sum(axis=1), 3, rng)
            assert picks == [picks[0]] * 3
        est = estimate_block_structure(g, 3, seed=0)
        assert est.graphon.m == 1
        assert est.graphon.values[0, 0] == 0.0


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
        # the 2-star window, counted from degrees, equals a brute-force count
        # over all graphs; the pattern written with edges (1,2), (1,3)
        # normalizes to the same star, so it takes the degree count too
        star = SubgraphPattern.star(2)
        fast = enumerate_Z(5, ConstraintVector(((star, 0.3),), 0.1))
        generic_pattern = SubgraphPattern(3, ((1, 2), (1, 3)))
        assert generic_pattern == star  # same normalized pattern
        # compare against brute force over all graphs; the window bounds are
        # decimal-exact (0.3 means 3/10), so the oracle must use Fractions too
        count = 0
        pairs = list(itertools.combinations(range(5), 2))
        for mask in range(1 << 10):
            edges = [pairs[b] for b in range(10) if mask >> b & 1]
            g = FiniteGraph.from_edges(5, edges)
            d = finite_density(g, star)
            if abs(d - Fraction(3, 10)) < Fraction(1, 10):
                count += 1
        assert fast.z == count

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 5),
        names=st.lists(st.sampled_from(sorted(ENUM_PATTERNS)), min_size=1, max_size=2,
                       unique=True),
        twentieths=st.lists(st.integers(0, 20), min_size=2, max_size=2),
        delta=st.sampled_from(["0.05", "0.1", "0.15", "0.3"]),
    )
    @example(n=5, names=["4cycle"], twentieths=[2, 0], delta="0.1")
    @example(n=5, names=["4path", "triangle"], twentieths=[6, 2], delta="0.15")
    @example(n=4, names=["4cycle", "3star"], twentieths=[1, 3], delta="0.3")
    def test_matches_brute_force(self, n, names, twentieths, delta):
        # every graph's densities from finite_density, windows read as exact
        # decimals; cycle(4) and path(4) take the generic placement count
        terms = [(ENUM_PATTERNS[name], t / 20) for name, t in zip(names, twentieths)]
        rep = enumerate_Z(n, ConstraintVector(tuple(terms), float(delta)))
        graphs = _all_graphs(n)
        z = sum(
            all(pat.k <= n and abs(dens[pat] - Fraction(str(t))) < Fraction(delta)
                for pat, t in terms)
            for _, _, dens in graphs
        )
        assert rep.z == z
        assert rep.total == len(graphs)
        hist = Counter((e, t) for e, t, _ in graphs)
        assert rep.histogram == tuple((e, t, c) for (e, t), c in sorted(hist.items()))

    def test_counts_read_at_a_pinned_tree(self):
        # values read from the whole-range enumeration this replaced
        rep = enumerate_Z(7, ConstraintVector.edge_triangle(0.5, 0.12, 0.05))
        assert rep.z == 518994 and len(rep.histogram) == 110
        digest = hashlib.sha256(json.dumps(rep.histogram).encode()).hexdigest()
        assert digest[:16] == "a71a74b9a7aad310"
        c4 = ConstraintVector(((SubgraphPattern.cycle(4), 0.1),), 0.08)
        assert enumerate_Z(6, c4).z == 22407
        star = ConstraintVector(((SubgraphPattern.star(3), 0.2), (EDGE, 0.5)), 0.15)
        assert enumerate_Z(6, star).z == 16870

    def test_memory_stays_small_at_the_cap(self):
        # one neighbourhood of the last vertex at a time: count arrays of
        # 2^15 low graphs, not of all 2^21 graphs (50 MB traced)
        tracemalloc.start()
        try:
            enumerate_Z(7, ConstraintVector.edge_triangle(0.5, 0.12, 0.05))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_signed_pattern_rejected(self):
        for pat in (SubgraphPattern.signed_two_star(), SubgraphPattern.signed_square()):
            with pytest.raises(ValueError, match="all-present"):
                enumerate_Z(4, ConstraintVector(((pat, 0.2),), 0.1))

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
