"""Finite-n cross-validation: microcanonical MCMC over constrained graphs and
exact enumeration of the constrained count Z_n at tiny n.

The chain is a Metropolis walk over single-edge toggles whose target is the
uniform distribution on graphs with all constrained densities inside the open
windows (alpha_j - delta, alpha_j + delta).  Proposals are symmetric and the
target is an indicator, so acceptance is just window membership, decided on
exact integer pattern counts so that a state on a window's edge is out.
Densities use the injective (finite-graph) convention throughout.

The chain draws its proposals in blocks: one generator call with per-element
bounds (n, n - 1, n, n - 1, ...) consumes the generator as one pair of scalar
draws per proposal does.  Each vertex's neighbourhood is a Python-int bitset,
so the common neighbours of u and v are the popcount of an AND of two ints,
an accepted toggle flips two bits, and one loop decides each proposal on
local Python ints; the 0/1 matrix is unpacked from the bitsets for samples
only.  A chain therefore retains the samples, acceptance and stalled flag of
the single-proposal chain with the same seed.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graphon import (
    ConstraintVector,
    FiniteGraph,
    StepGraphon,
    SubgraphPattern,
    _Record,
    _count_window,
    _falling,
    _pattern_kind,
    finite_density,
)
from .optimizer import reference_construction

logger = logging.getLogger(__name__)

ENUM_N_CAP = 7
GENERIC_N_CAP = 30
# pattern kinds counted in closed form; any other goes to the generic count
_COUNTED = ("edge", "triangle", "star")
# proposals drawn per call to the generator in the chain
_BLOCK = 1024


class SamplerInitError(RuntimeError):
    """Could not construct a feasible initial graph within the repair budget."""


@dataclass(frozen=True)
class ChainConfig:
    """Metropolis chain configuration: burn_in and sample_interval default to
    50 n^2 and n^2 edge-toggle proposals.  Sample k is taken after proposal
    sample_step(k) = burn_in + k sample_interval (at least 1), and the chain
    ends there at its last sample, or after the burn-in when it retains none."""

    n: int
    constraints: ConstraintVector
    seed: int = 0
    burn_in: int | None = None
    sample_interval: int | None = None
    n_samples: int = 10

    def __post_init__(self):
        for name in ("n", "burn_in", "sample_interval", "n_samples"):
            value = getattr(self, name)
            if value is None and name in ("burn_in", "sample_interval"):
                continue  # the default schedule
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        if self.n < 4:
            raise ValueError("chains need n >= 4")
        if self.constraints.delta <= 0:
            raise ValueError("hard windows need a positive delta at finite n")
        if self.n_samples < 0:
            raise ValueError("n_samples must be >= 0")
        if self.burn_in_steps < 0 or self.interval_steps < 0:
            raise ValueError("burn_in and sample_interval must be >= 0")
        if self.burn_in_steps + self.interval_steps * self.n_samples == 0:
            raise ValueError(
                "the chain makes no proposals: burn_in is 0, and sample_interval or n_samples is 0")

    @property
    def burn_in_steps(self) -> int:
        return 50 * self.n * self.n if self.burn_in is None else self.burn_in

    @property
    def interval_steps(self) -> int:
        return self.n * self.n if self.sample_interval is None else self.sample_interval

    def sample_step(self, k: int) -> int:
        """The proposal after which sample k is taken."""
        return max(1, self.burn_in_steps + k * self.interval_steps)

    @property
    def total_steps(self) -> int:
        """Proposals the chain makes."""
        if self.n_samples == 0:
            return self.burn_in_steps
        return self.sample_step(self.n_samples - 1)


@dataclass
class SampleRun:
    """Retained samples plus chain diagnostics; iterates over the graphs."""

    graphs: list[FiniteGraph]
    densities: np.ndarray  # (n_samples, n_constraints)
    acceptance_rate: float
    stalled: bool
    config: ChainConfig

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def __getitem__(self, i):
        return self.graphs[i]


def _count_denominator(pattern: SubgraphPattern, n: int) -> int:
    """D such that the injective density of the pattern is count / D, with the
    count a graph's edges, triangles, sum of falling factorials of degrees
    (k-stars), or injective maps of the pattern (anything else)."""
    if pattern == SubgraphPattern.edge():
        return math.comb(n, 2)
    if pattern == SubgraphPattern.triangle():
        return math.comb(n, 3)
    return _falling(n, pattern.k)


def _check_all_present(pattern: SubgraphPattern) -> None:
    # finite-graph densities are defined for all-present patterns only (graphon.finite_density)
    if not pattern.is_all_present:
        raise ValueError("sampling and enumeration constraints must be all-present patterns")


class _DensityTracker:
    """Counts of the constraint patterns, updated per edge toggle; a pattern's
    density is its count over `denoms`, and window membership is decided on
    the counts against the exact integer `windows`.

    The graph is held as neighbourhood bitsets `rows`: bit v of the Python
    int rows[u] is set when u and v are adjacent, so u has
    rows[u].bit_count() neighbours and u and v have
    (rows[u] & rows[v]).bit_count() common neighbours.  Edge, triangle, and
    k-star counts are updated from them per toggle.  The 0/1 matrix is
    unpacked from the bitsets for a sample and for any other pattern, which
    forces a full recount per proposal and is only allowed at small n.
    """

    def __init__(self, adj: np.ndarray, constraints: ConstraintVector):
        adj = adj.astype(np.int32)
        self.n = n = adj.shape[0]
        self.kinds: list[tuple[str, int]] = []
        for pat in constraints.patterns:
            kind, r = _pattern_kind(pat)
            if kind not in _COUNTED:
                if n > GENERIC_N_CAP:
                    raise ValueError(
                        "incremental updates support edge/triangle/k-star "
                        f"patterns; generic patterns need n <= {GENERIC_N_CAP}"
                    )
                _check_all_present(pat)
                kind = "generic"
            self.kinds.append((kind, r))
        self.patterns = constraints.patterns
        self.denoms = [_count_denominator(p, n) for p in self.patterns]
        self.windows = [
            _count_window(t, constraints.delta, d)
            for (_, t), d in zip(constraints.terms, self.denoms)
        ]
        self.rows = [
            int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in adj.astype(bool)
        ]
        self.edge_count = int(adj.sum()) // 2
        # each triangle has three edges, and is a common neighbour across each
        self.triangle_count = sum(
            (self.rows[u] & self.rows[v]).bit_count() for u, v in zip(*np.triu(adj).nonzero())
        ) // 3
        self.star_arities = sorted({k for kind, k in self.kinds if kind == "star"})
        self.star_sums = {
            r: sum(_falling(d, r) for d in adj.sum(axis=1).tolist()) for r in self.star_arities
        }
        # each kind's window, intersected over repeats of a pattern; `inside`
        # reads `windows` in constraint order.  An absent edge or triangle
        # window is every count a graph can have
        merged = {("edge", 0): (0, math.comb(n, 2)), ("triangle", 0): (0, math.comb(n, 3))}
        for key, (lo, hi) in zip(self.kinds, self.windows):
            lo0, hi0 = merged.get(key, (lo, hi))
            merged[key] = (max(lo, lo0), min(hi, hi0))
        self.edge_window = merged["edge", 0]
        self.triangle_window = merged["triangle", 0]
        self._star_windows = [(r, *merged["star", r]) for r in self.star_arities]
        self.generic_windows = [
            (p, *w) for p, (kind, _), w in zip(self.patterns, self.kinds, self.windows)
            if kind == "generic"
        ]

    def _generic_count(self, adj: np.ndarray, pattern: SubgraphPattern) -> int:
        return int(finite_density(FiniteGraph(adj), pattern) * _falling(self.n, pattern.k))

    def _star_sum_after(self, r: int, du: int, dv: int, sign: int) -> int:
        """The r-star count once the endpoint degrees du, dv move by sign."""
        return (
            self.star_sums[r]
            + _falling(du + sign, r) - _falling(du, r)
            + _falling(dv + sign, r) - _falling(dv, r)
        )

    def adjacency(self) -> np.ndarray:
        """The 0/1 adjacency matrix, unpacked from the bitsets."""
        width = (self.n + 7) // 8
        packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in self.rows), np.uint8)
        return np.unpackbits(packed.reshape(self.n, width), axis=1, count=self.n, bitorder="little")

    def _toggled_adj(self, u: int, v: int) -> np.ndarray:
        adj = self.adjacency()
        adj[u, v] = adj[v, u] = 1 - adj[u, v]
        return adj

    def counts(self) -> list[int]:
        out = []
        for j, (kind, r) in enumerate(self.kinds):
            if kind == "edge":
                out.append(self.edge_count)
            elif kind == "triangle":
                out.append(self.triangle_count)
            elif kind == "star":
                out.append(self.star_sums[r])
            else:
                out.append(self._generic_count(self.adjacency(), self.patterns[j]))
        return out

    def toggled_counts(self, u: int, v: int) -> list[int]:
        """Counts after toggling edge (u, v), without mutating state."""
        ru, rv = self.rows[u], self.rows[v]
        sign = 1 - 2 * (ru >> v & 1)
        du, dv = ru.bit_count(), rv.bit_count()
        out = []
        generic_adj = None
        for j, (kind, r) in enumerate(self.kinds):
            if kind == "edge":
                out.append(self.edge_count + sign)
            elif kind == "triangle":
                out.append(self.triangle_count + sign * (ru & rv).bit_count())
            elif kind == "star":
                out.append(self._star_sum_after(r, du, dv, sign))
            else:
                if generic_adj is None:
                    generic_adj = self._toggled_adj(u, v)
                out.append(self._generic_count(generic_adj, self.patterns[j]))
        return out

    def admit(self, u: int, v: int) -> bool:
        """Whether the star and generic windows hold once edge (u, v) toggles;
        if they do, the star sums move with the toggle.  The chain calls this
        once the edge and triangle windows hold, and then flips the two bits
        and moves those two counts itself."""
        ru, rv = self.rows[u], self.rows[v]
        sign = 1 - 2 * (ru >> v & 1)
        du, dv = ru.bit_count(), rv.bit_count()
        sums = {r: self._star_sum_after(r, du, dv, sign) for r in self.star_arities}
        if not all(lo <= sums[r] <= hi for r, lo, hi in self._star_windows):
            return False
        if self.generic_windows:
            adj = self._toggled_adj(u, v)
            for pattern, lo, hi in self.generic_windows:
                if not lo <= self._generic_count(adj, pattern) <= hi:
                    return False
        self.star_sums = sums
        return True

    def inside(self, counts: list[int]) -> bool:
        """Whether counts lie strictly inside every open density window."""
        return all(lo <= c <= hi for c, (lo, hi) in zip(counts, self.windows))

    def _as_densities(self, counts: list[int]) -> np.ndarray:
        return np.array([c / d for c, d in zip(counts, self.denoms)])

    def densities(self) -> np.ndarray:
        return self._as_densities(self.counts())

    def toggled_densities(self, u: int, v: int) -> np.ndarray:
        """Densities after toggling edge (u, v), without mutating state."""
        return self._as_densities(self.toggled_counts(u, v))

    def apply_toggle(self, u: int, v: int) -> None:
        """Toggle edge (u, v) and update the counts: with s = +1 for an added
        edge and -1 for a removed one, the triangle count moves by s times the
        common neighbours of u and v, the k-star sums by the change in the
        endpoints' falling factorials, and bit v of rows[u] and bit u of
        rows[v] flip."""
        rows = self.rows
        ru, rv = rows[u], rows[v]
        sign = 1 - 2 * (ru >> v & 1)
        du, dv = ru.bit_count(), rv.bit_count()
        self.star_sums = {r: self._star_sum_after(r, du, dv, sign) for r in self.star_arities}
        self.edge_count += sign
        self.triangle_count += sign * (ru & rv).bit_count()
        rows[u] = ru ^ 1 << v
        rows[v] = rv ^ 1 << u


def _initial_graphon(constraints: ConstraintVector) -> StepGraphon:
    by_pat = {p: t for p, t in constraints.terms}
    edge = SubgraphPattern.edge()
    tri = SubgraphPattern.triangle()
    if edge in by_pat and tri in by_pat:
        try:
            return reference_construction(by_pat[edge], by_pat[tri])
        except ValueError:
            pass
    if edge in by_pat:
        return StepGraphon.constant(max(1e-3, min(1 - 1e-3, by_pat[edge])))
    return StepGraphon.constant(0.5)


def _sample_from_graphon(q: StepGraphon, n: int, rng: np.random.Generator) -> np.ndarray:
    # largest-remainder block sizes
    raw = q.masses * n
    counts = np.floor(raw).astype(int)
    rem = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    for i in range(rem):
        counts[order[i % q.m]] += 1
    labels = np.repeat(np.arange(q.m), counts)
    probs = q.values[np.ix_(labels, labels)]
    u = rng.random((n, n))
    u = np.triu(u, 1)
    adj = (u < np.triu(probs, 1)).astype(np.int32)
    return adj + adj.T


def _violation(densities: np.ndarray, targets: np.ndarray, delta: float) -> float:
    # aim for the inner half of each window so the chain starts comfortably in
    return float(np.clip(np.abs(densities - targets) - 0.5 * delta, 0.0, None).sum())


def sample_constrained(cfg: ChainConfig) -> SampleRun:
    """Run the microcanonical chain and return thinned samples.

    The initial graph is drawn from the closed-form reference graphon and
    repaired into the windows by greedy toggles; SamplerInitError is raised if
    the repair budget runs out.  Every retained sample satisfies all windows.
    A full sweep with no accepted toggle sets the stalled flag.
    """
    n = cfg.n
    rng = np.random.default_rng(cfg.seed)
    targets = cfg.constraints.targets
    delta = cfg.constraints.delta
    adj = _sample_from_graphon(_initial_graphon(cfg.constraints), n, rng)
    tracker = _DensityTracker(adj, cfg.constraints)

    score = _violation(tracker.densities(), targets, delta)
    budget = 40 * n * n
    while score > 0.0 and budget > 0:
        budget -= 1
        u = int(rng.integers(n))
        v = int(rng.integers(n - 1))
        if v >= u:
            v += 1
        cand = _violation(tracker.toggled_densities(u, v), targets, delta)
        if cand < score - 1e-15:
            tracker.apply_toggle(u, v)
            score = cand
    if not tracker.inside(tracker.counts()):
        raise SamplerInitError(
            "greedy repair failed to reach the constraint windows "
            f"(densities {tracker.densities()})"
        )

    sweep = n * (n - 1) // 2
    total = cfg.total_steps
    # per-element bounds draw exactly what alternating rng.integers(n) and
    # rng.integers(n - 1) calls draw, one proposal (u, v) per pair, wherever
    # the draws are cut: at each block's end and at each sample
    bounds = np.tile([n, n - 1], _BLOCK)
    sample_steps = [cfg.sample_step(k) for k in range(cfg.n_samples)]
    stops = sorted({*range(_BLOCK, total, _BLOCK), *sample_steps, total})
    graphs: list[FiniteGraph] = []
    rows: list[np.ndarray] = []
    # the loop below reads locals only, and leaves star and generic windows to `admit`
    bitsets = tracker.rows
    edges, triangles = tracker.edge_count, tracker.triangle_count
    (edge_lo, edge_hi), (tri_lo, tri_hi) = tracker.edge_window, tracker.triangle_window
    admit = tracker.admit if tracker.star_arities or tracker.generic_windows else None
    accepted = 0
    last_accept = 0  # step of the last accepted toggle; rejections since set stalled
    stalled = False
    done = 0
    for stop in stops:
        draws = rng.integers(bounds[: 2 * (stop - done)])
        draws[1::2] += draws[1::2] >= draws[::2]  # v skips u
        pairs = iter(draws.tolist())
        for step, u, v in zip(range(done + 1, stop + 1), pairs, pairs):
            ru = bitsets[u]
            sign = 1 - 2 * (ru >> v & 1)
            e = edges + sign
            if edge_lo <= e <= edge_hi:
                rv = bitsets[v]
                t = triangles + sign * (ru & rv).bit_count()
                if tri_lo <= t <= tri_hi and (admit is None or admit(u, v)):
                    bitsets[u] = ru ^ 1 << v
                    bitsets[v] = rv ^ 1 << u
                    edges, triangles = e, t
                    accepted += 1
                    stalled = stalled or step - last_accept > sweep
                    last_accept = step
        done = stop
        tracker.edge_count, tracker.triangle_count = edges, triangles
        while len(graphs) < cfg.n_samples and sample_steps[len(graphs)] <= stop:
            graphs.append(FiniteGraph(tracker.adjacency()))
            rows.append(tracker.densities())
    stalled = stalled or total - last_accept >= sweep
    if stalled:
        logger.warning(
            "chain stalled: no accepted toggle in a full sweep (%d proposals)", sweep
        )
    return SampleRun(
        graphs=graphs,
        densities=np.array(rows).reshape(len(rows), len(targets)),
        acceptance_rate=accepted / total,
        stalled=stalled,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# block recovery


@dataclass(frozen=True)
class BlockEstimate:
    """k-means block recovery: the step graphon, the clustering objective
    (within-cluster sum of squares), and node labels."""

    graphon: StepGraphon
    objective: float
    labels: np.ndarray


def estimate_block_structure(g: FiniteGraph, m: int, seed: int = 0) -> BlockEstimate:
    """Cluster nodes by adjacency-row profiles (Lloyd's algorithm, k-means++
    seeding, best of 10 restarts) and return cluster masses and inter-cluster edge
    frequencies.  Empty clusters are dropped, so the result can have fewer
    than m blocks (duplicate-row graphs).

    The ten k-means++ seedings are drawn first, from one generator, and
    Lloyd advances the ten restarts in lockstep until no labels change.
    Seeds are rows and rows are 0/1, so seeding distances are exact Hamming
    distances.  Lloyd labels a row r by the center c minimizing |c|^2 - 2 r.c
    (Gram products), which rounds unlike the direct sum of (r - c)^2: centers
    within about 1e-13 relative may break a tie the other way.  An empty
    cluster keeps its center.  The objective is the direct within-cluster
    sum of squares; the first restart within 1e-12 of the best is kept.

    The fit assumes sharp block membership.  A graph whose node profile is
    graded (constrained chains near the ER curve at moderate n) is split
    somewhere inside the grading, and the values read a weaker contrast than
    the graph's spectrum shows."""
    if not 1 <= m <= 8:
        raise ValueError("estimate_block_structure supports m in 1..8")
    if m > g.n:
        raise ValueError(f"m={m} exceeds node count {g.n}")
    rows = g.adjacency.astype(float)
    n = g.n
    rng = np.random.default_rng(seed)
    sq = rows.sum(axis=1)
    centers = rows[[_kmeanspp(rows, sq, m, rng) for _ in range(10)]]  # (10, m, n)
    labels = None
    for _it in range(100):
        cross = (rows @ centers.reshape(-1, n).T).reshape(n, 10, m)
        new_labels = ((centers**2).sum(axis=2) - 2.0 * cross).argmin(axis=2).T
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        onehot = (labels[:, None, :] == np.arange(m)[:, None]).astype(float)
        sizes = onehot.sum(axis=2, keepdims=True)
        sums = (onehot.reshape(-1, n) @ rows).reshape(10, m, n)
        centers = np.where(sizes > 0, sums / np.maximum(sizes, 1.0), centers)
    best, objective = None, {}
    for lab, cen in zip(labels, centers):
        key = lab.tobytes()  # equal partitions have equal objectives
        if key not in objective:
            objective[key] = float(((rows - cen[lab]) ** 2).sum(axis=1).sum())
        if best is None or objective[key] < best[0] - 1e-12:
            best = (objective[key], lab.copy())
    obj, labels = best
    # block sums of the adjacency as one-hot products; every count is an
    # exact integer, so each division rounds as a block mean does
    onehot = (labels[:, None] == np.unique(labels)).astype(float)
    sizes = onehot.sum(axis=0)
    links = onehot.T @ g.adjacency @ onehot
    values = links / np.maximum(np.outer(sizes, sizes) - np.diag(sizes), 1.0)
    # a one-node cluster has no internal pairs; fall back to the node's
    # overall connection frequency
    single = np.flatnonzero(sizes == 1)
    values[single, single] = links[single].sum(axis=1) / max(n - 1, 1)
    return BlockEstimate(StepGraphon(sizes / n, values), obj, labels)


def _kmeanspp(rows: np.ndarray, sq: np.ndarray, m: int, rng: np.random.Generator) -> list[int]:
    """Row indices of a k-means++ seeding of 0/1 rows whose squared norms are sq."""
    n = rows.shape[0]
    picks, d2 = [int(rng.integers(n))], np.inf
    while len(picks) < m:
        # |r|^2 + |c|^2 - 2 r.c of 0/1 rows: an exact Hamming distance
        d2 = np.minimum(d2, sq + sq[picks[-1]] - 2.0 * (rows @ rows[picks[-1]]))
        total = d2.sum()
        if total <= 0:  # every row equals a center: repeat the first
            return picks + [picks[0]] * (m - len(picks))
        picks.append(int(rng.choice(n, p=d2 / total)))
    return picks


# ---------------------------------------------------------------------------
# exact enumeration


@dataclass(frozen=True)
class EnumerationReport(_Record):
    """Exact count of labeled graphs meeting the windows, plus the joint
    (edge count, triangle count) histogram of all 2^binom(n,2) graphs."""

    n: int
    z: int
    total: int
    log_normalized: float  # (1/n^2) ln Z
    histogram: tuple[tuple[int, int, int], ...]  # (edge_count, triangle_count, count)
    constraints: tuple[tuple[dict, float], ...]
    delta: float


def _pattern_mask_classes(pattern: SubgraphPattern, n: int, bit: dict) -> Counter:
    """Required-edge bitmasks of all injective placements, with multiplicity."""
    classes: Counter = Counter()
    for nodes in itertools.permutations(range(n), pattern.k):
        mask = 0
        for u, v in pattern.edges:
            mask |= bit[(min(nodes[u - 1], nodes[v - 1]), max(nodes[u - 1], nodes[v - 1]))]
        classes[mask] += 1
    return classes


def enumerate_Z(n: int, constraints: ConstraintVector) -> EnumerationReport:
    """Exhaustively count labeled graphs on n nodes whose injective densities
    fall strictly inside every window (alpha_j - delta, alpha_j + delta).

    The graphs are split at the last vertex.  The C(n-1, 2) pairs among the
    other vertices form a low graph, and the last vertex's neighbourhood S
    holds the remaining n - 1 pairs.  The edge and triangle counts and the
    degrees of all 2^C(n-1,2) low graphs are computed once; each of the
    2^(n-1) neighbourhoods then adds only its own part: |S| edges, the low
    edges inside S as triangles, a degree for each member of S and |S| for
    the last vertex, and, for a generic pattern, the placements whose pairs
    at the last vertex lie in S.  Memory is O(2^C(n-1,2)): count arrays of
    2^15 entries at n = 7."""
    if n > ENUM_N_CAP:
        raise ValueError(f"exact enumeration capped at n = {ENUM_N_CAP}")
    if n < 1:
        raise ValueError("n must be positive")
    last = n - 1
    low_pairs = list(itertools.combinations(range(last), 2))
    n_low = len(low_pairs)
    bit = {pair: 1 << i for i, pair in enumerate(low_pairs)}
    bit.update({(u, last): 1 << (n_low + u) for u in range(last)})

    low = np.arange(1 << n_low, dtype=np.int64)
    low_edges = np.bitwise_count(low).astype(np.int64)
    low_triangles = np.zeros_like(low)
    for a, b, c in itertools.combinations(range(last), 3):
        t = bit[(a, b)] | bit[(a, c)] | bit[(b, c)]
        low_triangles += (low & t) == t
    low_degrees = [
        np.bitwise_count(low & sum(bit[min(u, v), max(u, v)] for v in range(last) if v != u))
        .astype(np.int64)
        for u in range(last)
    ]

    delta = constraints.delta
    kinds = []
    for pat, target in constraints.terms:
        kind, r = _pattern_kind(pat)
        if kind == "star":
            # the low graph's r-star count, and what u joining S adds to it:
            # (d + 1)_r - (d)_r = r (d)_(r-1)
            aux = (sum(_falling(d, r) for d in low_degrees),
                   [r * _falling(d, r - 1) for d in low_degrees])
        elif kind not in _COUNTED:
            _check_all_present(pat)
            # placement counts of every low graph, keyed by the pairs at the
            # last vertex that the placements need
            kind, aux = "generic", {}
            for mask, mult in _pattern_mask_classes(pat, n, bit).items():
                high, part = mask >> n_low, mask & ((1 << n_low) - 1)
                aux[high] = aux.get(high, 0) + mult * ((low & part) == part)
        else:
            aux = None
        cmin, cmax = _count_window(target, delta, _count_denominator(pat, n))
        kinds.append((kind, r, aux, cmin, cmax))

    n_triangle_bins = math.comb(n, 3) + 1
    hist = np.zeros((math.comb(n, 2) + 1) * n_triangle_bins, dtype=np.int64)
    z = 0
    for s in range(1 << last):
        members = [u for u in range(last) if s >> u & 1]
        pairs_in_s = sum(bit[pair] for pair in itertools.combinations(members, 2))
        edges = low_edges + len(members)
        triangles = low_triangles + np.bitwise_count(low & pairs_in_s)
        ok = np.ones(low.shape, dtype=bool)
        for kind, r, aux, cmin, cmax in kinds:
            if kind == "edge":
                cnt = edges
            elif kind == "triangle":
                cnt = triangles
            elif kind == "star":
                base, joins = aux
                cnt = base + sum(joins[u] for u in members) + _falling(len(members), r)
            else:
                cnt = sum(a for high, a in aux.items() if high & ~s == 0)
            ok &= (cnt >= cmin) & (cnt <= cmax)
        z += int(np.count_nonzero(ok))
        hist += np.bincount(edges * n_triangle_bins + triangles, minlength=len(hist))
    total = 1 << math.comb(n, 2)
    log_norm = -math.inf if z == 0 else math.log(z) / (n * n)
    histogram = tuple(
        (int(k) // n_triangle_bins, int(k) % n_triangle_bins, int(hist[k]))
        for k in np.flatnonzero(hist)
    )
    return EnumerationReport(
        n=n,
        z=z,
        total=total,
        log_normalized=log_norm,
        histogram=histogram,
        constraints=tuple((p.to_dict(), float(t)) for p, t in constraints.terms),
        delta=delta,
    )
