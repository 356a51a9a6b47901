"""Step graphons, subgraph patterns, finite graphs, and exact density functionals.

A step graphon is piecewise constant on an m-block partition of [0,1]: block
masses c_i and a symmetric value matrix p_ij.  All densities here are
homomorphism densities evaluated by exact summation over block assignments;
injective (finite-graph) densities live in :func:`finite_density`.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

MASS_TOL = 1e-12
DEFAULT_VERTEX_CAP = 6
DEFAULT_MERGE_TOL = 1e-4
BLOWUP_NODE_CAP = 20000

_LETTERS = string.ascii_letters  # one einsum index per pattern vertex


class PatternTooLargeError(ValueError):
    """Raised when a pattern exceeds the evaluation vertex cap."""


def decimal_fraction(x) -> Fraction:
    """Exact rational of a number's decimal rendering, so a window width
    written as 0.1 means exactly 1/10."""
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    return Fraction(str(x))


def _count_window(target: float, delta: float, denom: int) -> tuple[int, int]:
    """Inclusive integer count bounds equivalent to the open density window
    (target - delta, target + delta) for densities count / denom; targets and
    delta are read at their decimal value (0.1 means 1/10), so a count exactly
    on an edge is out."""
    lo = (decimal_fraction(target) - decimal_fraction(delta)) * denom
    hi = (decimal_fraction(target) + decimal_fraction(delta)) * denom
    return math.floor(lo) + 1, math.ceil(hi) - 1


class _Record:
    """Mixin for the result dataclasses: to_dict gives the fields by name, a
    value with its own to_dict (StepGraphon, GridPermuton) through it, and
    tuples as lists."""

    def to_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(v):
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v.to_dict() if hasattr(v, "to_dict") else v


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SubgraphPattern:
    """A small simple graph with edges labeled present or absent.

    Vertices are 1..k (matching the JSON wire format).  A present edge (u,v)
    contributes a factor q(x_u, x_v) to the density integrand, an absent edge
    contributes 1 - q(x_u, x_v).
    """

    k: int
    edges: tuple[tuple[int, int], ...]
    absent: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("pattern needs k >= 1 vertices")
        edges = tuple(_norm_edge(*e) for e in self.edges)
        absent = tuple(_norm_edge(*e) for e in self.absent)
        seen = set()
        for u, v in edges + absent:
            if u == v:
                raise ValueError(f"loop edge ({u},{v}) not allowed")
            if not (1 <= u <= self.k and 1 <= v <= self.k):
                raise ValueError(f"edge ({u},{v}) outside vertices 1..{self.k}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        object.__setattr__(self, "absent", tuple(sorted(absent)))

    @property
    def all_edges(self) -> tuple[tuple[int, int], ...]:
        return self.edges + self.absent

    @property
    def is_all_present(self) -> bool:
        return not self.absent

    @classmethod
    def edge(cls) -> "SubgraphPattern":
        return cls(2, ((1, 2),))

    @classmethod
    def triangle(cls) -> "SubgraphPattern":
        return cls(3, ((1, 2), (1, 3), (2, 3)))

    @classmethod
    def star(cls, k: int) -> "SubgraphPattern":
        """k-star: k edges sharing the center vertex 1 (k+1 vertices)."""
        if k < 1:
            raise ValueError("k-star needs k >= 1")
        return cls(k + 1, tuple((1, j) for j in range(2, k + 2)))

    @classmethod
    def cycle(cls, k: int) -> "SubgraphPattern":
        if k < 3:
            raise ValueError("cycle needs k >= 3")
        return cls(k, tuple((i, i + 1) for i in range(1, k)) + ((1, k),))

    @classmethod
    def path(cls, k: int) -> "SubgraphPattern":
        if k < 2:
            raise ValueError("path needs k >= 2")
        return cls(k, tuple((i, i + 1) for i in range(1, k)))

    @classmethod
    def complete(cls, k: int) -> "SubgraphPattern":
        return cls(k, tuple(itertools.combinations(range(1, k + 1), 2)))

    @classmethod
    def signed_two_star(cls) -> "SubgraphPattern":
        """Path on 3 vertices, one edge present and one absent (density t1)."""
        return cls(3, ((1, 2),), ((2, 3),))

    @classmethod
    def signed_square(cls) -> "SubgraphPattern":
        """4-cycle with alternating present/absent edges (density t2)."""
        return cls(4, ((1, 2), (3, 4)), ((2, 3), (1, 4)))

    def to_dict(self) -> dict:
        d = {"k": self.k, "edges": [list(e) for e in self.edges]}
        if self.absent:
            d["absent"] = [list(e) for e in self.absent]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SubgraphPattern":
        return cls(
            int(d["k"]),
            tuple((int(u), int(v)) for u, v in d["edges"]),
            tuple((int(u), int(v)) for u, v in d.get("absent", ())),
        )


class StepGraphon:
    """m-podal graphon: block masses (positive, summing to 1) and a symmetric
    value matrix with entries in [0,1]."""

    __slots__ = ("masses", "values")

    def __init__(self, masses, values):
        c = np.asarray(masses, dtype=float).reshape(-1)
        p = np.asarray(values, dtype=float)
        m = c.shape[0]
        if p.shape != (m, m):
            raise ValueError(f"values must be {m}x{m}, got {p.shape}")
        if np.any(c <= 0):
            raise ValueError("block masses must be strictly positive")
        if abs(c.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"block masses must sum to 1, got {c.sum()!r}")
        if np.max(np.abs(p - p.T)) > 1e-9:
            raise ValueError("value matrix must be symmetric")
        if p.min() < -1e-9 or p.max() > 1 + 1e-9:
            raise ValueError("block values must lie in [0,1]")
        c = c / c.sum()
        p = np.clip((p + p.T) / 2.0, 0.0, 1.0)
        c.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "masses", c)
        object.__setattr__(self, "values", p)

    def __setattr__(self, name, value):
        raise AttributeError("StepGraphon is immutable")

    @property
    def m(self) -> int:
        return self.masses.shape[0]

    @classmethod
    def constant(cls, p: float) -> "StepGraphon":
        return cls([1.0], [[p]])

    @classmethod
    def bipodal(cls, c1: float, p11: float, p22: float, p12: float) -> "StepGraphon":
        return cls([c1, 1.0 - c1], [[p11, p12], [p12, p22]])

    def allclose(self, other: "StepGraphon", tol: float = 1e-12) -> bool:
        return (
            self.m == other.m
            and np.allclose(self.masses, other.masses, atol=tol, rtol=0)
            and np.allclose(self.values, other.values, atol=tol, rtol=0)
        )

    def __repr__(self):
        return f"StepGraphon(m={self.m}, masses={self.masses.tolist()})"

    def to_dict(self) -> dict:
        return {"masses": self.masses.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "StepGraphon":
        return cls(d["masses"], d["values"])


class FiniteGraph:
    """Labeled simple graph on n nodes, stored as a 0/1 adjacency matrix."""

    __slots__ = ("n", "adjacency")

    def __init__(self, adjacency):
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("no loops allowed")
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("adjacency entries must be 0/1")
        a = a.astype(np.int32)
        a.flags.writeable = False
        object.__setattr__(self, "n", a.shape[0])
        object.__setattr__(self, "adjacency", a)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGraph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges) -> "FiniteGraph":
        """Build from 0-indexed (u, v) pairs."""
        a = np.zeros((n, n), dtype=np.int32)
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u},{v})")
            a[u, v] = a[v, u] = 1
        return cls(a)

    @classmethod
    def empty(cls, n: int) -> "FiniteGraph":
        return cls(np.zeros((n, n), dtype=np.int32))

    @classmethod
    def complete(cls, n: int) -> "FiniteGraph":
        return cls(np.ones((n, n), dtype=np.int32) - np.eye(n, dtype=np.int32))

    @classmethod
    def cycle(cls, n: int) -> "FiniteGraph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edge_list(self) -> list[tuple[int, int]]:
        iu = np.triu_indices(self.n, k=1)
        mask = self.adjacency[iu] == 1
        return list(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))

    def __repr__(self):
        return f"FiniteGraph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class ConstraintVector:
    """Density constraints: (pattern, target) pairs plus a softening width."""

    terms: tuple[tuple[SubgraphPattern, float], ...]
    delta: float = 0.0

    def __post_init__(self):
        terms = tuple((p, float(t)) for p, t in self.terms)
        for p, t in terms:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"constraint target {t} outside [0,1]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0,1]")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def edge_triangle(cls, eps: float, tau: float, delta: float = 0.0) -> "ConstraintVector":
        return cls(
            ((SubgraphPattern.edge(), eps), (SubgraphPattern.triangle(), tau)),
            delta,
        )

    @property
    def patterns(self) -> tuple[SubgraphPattern, ...]:
        return tuple(p for p, _ in self.terms)

    @property
    def targets(self) -> np.ndarray:
        return np.array([t for _, t in self.terms])

    def __len__(self) -> int:
        return len(self.terms)


# ---------------------------------------------------------------------------
# density evaluation


def pattern_subscripts(pattern: SubgraphPattern) -> str:
    """einsum subscripts for the block-assignment sum of a pattern."""
    if pattern.k > len(_LETTERS):
        raise PatternTooLargeError(f"pattern has {pattern.k} vertices, einsum allows 52")
    idx = _LETTERS[: pattern.k]
    terms = list(idx)
    for u, v in pattern.all_edges:
        terms.append(idx[u - 1] + idx[v - 1])
    return ",".join(terms) + "->"


@lru_cache(maxsize=512)
def _einsum_path(subscripts: str, m: int, k: int, n_edges: int):
    ops = [np.empty(m)] * k + [np.empty((m, m))] * n_edges
    path, _ = np.einsum_path(subscripts, *ops, optimize="greedy")
    return path


def pattern_operands(q: StepGraphon, pattern: SubgraphPattern) -> list[np.ndarray]:
    comp = None
    ops: list[np.ndarray] = [q.masses] * pattern.k
    for _ in pattern.edges:
        ops.append(q.values)
    if pattern.absent:
        comp = 1.0 - q.values
        for _ in pattern.absent:
            ops.append(comp)
    return ops


def _check_vertex_cap(pattern: SubgraphPattern, cap: int = DEFAULT_VERTEX_CAP) -> None:
    """PatternTooLargeError for a pattern with more than cap vertices."""
    if pattern.k > cap:
        raise PatternTooLargeError(f"pattern has {pattern.k} vertices, cap is {cap}")


def subgraph_density(
    q: StepGraphon, pattern: SubgraphPattern, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> float:
    """Homomorphism density of the pattern in q: the sum over all maps of
    pattern vertices to blocks of mass products times edge factors.

    Cost is O(m^k) contracted via einsum; patterns with k > vertex_cap are
    rejected to bound the cost.
    """
    _check_vertex_cap(pattern, vertex_cap)
    sub = pattern_subscripts(pattern)
    path = _einsum_path(sub, q.m, pattern.k, len(pattern.all_edges))
    val = float(np.einsum(sub, *pattern_operands(q, pattern), optimize=path))
    return min(1.0, max(0.0, val))


def kstar_density(q: StepGraphon, k: int) -> float:
    """Density of k-stars: sum_i c_i (sum_j c_j p_ij)^k."""
    if k < 1:
        raise ValueError("k-star density needs k >= 1")
    r = q.values @ q.masses
    return float(np.dot(q.masses, r**k))


def _xlogx(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log(p[mask])
    return out


def graphon_entropy(q: StepGraphon) -> float:
    """Shannon entropy of a step graphon, in [0, ln(2)/2].

    S(q) = -sum_{ij} c_i c_j (p_ij ln p_ij + (1-p_ij) ln(1-p_ij)) / 2,
    with 0 ln 0 = 0.
    """
    h = _xlogx(q.values) + _xlogx(1.0 - q.values)
    return float(-0.5 * q.masses @ h @ q.masses)


def empirical_graphon(g: FiniteGraph) -> StepGraphon:
    """n-podal step graphon of a finite graph: equal masses, 0/1 values."""
    n = g.n
    masses = np.full(n, 1.0 / n)
    masses /= masses.sum()
    return StepGraphon(masses, g.adjacency.astype(float))


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _injective_hom_count(g: FiniteGraph, pattern: SubgraphPattern) -> int:
    """Count injective maps of pattern vertices into g preserving present edges."""
    a = g.adjacency
    n = g.n
    k = pattern.k
    nbrs = [set(np.nonzero(a[v])[0].tolist()) for v in range(n)]
    adj = [[] for _ in range(k)]
    for u, v in pattern.edges:
        adj[u - 1].append(v - 1)
        adj[v - 1].append(u - 1)
    # map high-degree pattern vertices first, neighbors before strangers
    order: list[int] = []
    remaining = set(range(k))
    while remaining:
        touching = [w for w in remaining if any(x in order for x in adj[w])]
        pool = touching or list(remaining)
        nxt = max(pool, key=lambda w: len(adj[w]))
        order.append(nxt)
        remaining.discard(nxt)
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def rec(pos: int) -> int:
        if pos == k:
            return 1
        w = order[pos]
        mapped_nbrs = [assigned[x] for x in adj[w] if x in assigned]
        if mapped_nbrs:
            cands = set(nbrs[mapped_nbrs[0]])
            for x in mapped_nbrs[1:]:
                cands &= nbrs[x]
            cands -= used
        else:
            cands = set(range(n)) - used
        total = 0
        for cand in cands:
            assigned[w] = cand
            used.add(cand)
            total += rec(pos + 1)
            used.discard(cand)
        assigned.pop(w, None)
        return total

    return rec(0)


def finite_density(g: FiniteGraph, pattern: SubgraphPattern) -> Fraction:
    """Injective-embedding density of an all-present pattern in a finite graph.

    Normalized so that finite_density(K_n, H) = 1 for every H: the count of
    injective edge-preserving maps divided by the count into the complete
    graph (the falling factorial n(n-1)...(n-k+1)).  Exact rational.
    """
    if not pattern.is_all_present:
        raise ValueError("finite_density requires an all-present pattern")
    if pattern.k > g.n:
        raise ValueError(f"pattern has {pattern.k} vertices but graph has {g.n}")
    n, k = g.n, pattern.k
    a = g.adjacency
    kind, r = _pattern_kind(pattern)
    if kind == "edge":
        count = int(a.sum())
    elif kind == "triangle":
        a64 = a.astype(np.int64)
        count = int(np.trace(a64 @ a64 @ a64))
    elif kind == "star":
        degs = a.sum(axis=1)
        count = sum(_falling(int(d), r) for d in degs)
    else:
        count = _injective_hom_count(g, pattern)
    return Fraction(count, _falling(n, k))


def _pattern_kind(pattern: SubgraphPattern) -> tuple[str, int]:
    """Which closed-form density kernel a pattern has: ("edge", 0),
    ("triangle", 0), ("star", r) for the r-star with center 1 (r >= 2),
    ("signed2star", 0) for one present and one absent edge sharing a vertex,
    ("signedsquare", 0) for a 4-cycle of alternating present and absent
    edges (two perfect matchings of 4 vertices), and ("generic", 0) for
    anything else (the 4-cycle included)."""
    if pattern == SubgraphPattern.edge():
        return ("edge", 0)
    if pattern == SubgraphPattern.triangle():
        return ("triangle", 0)
    star = tuple((1, j) for j in range(2, pattern.k + 1))
    if pattern.k > 2 and not pattern.absent and pattern.edges == star:
        return ("star", pattern.k - 1)
    if (
        pattern.k == 3
        and len(pattern.edges) == 1
        and len(pattern.absent) == 1
        and len(set(pattern.edges[0]) & set(pattern.absent[0])) == 1
    ):
        return ("signed2star", 0)
    if pattern.k == 4 and all(
        len(edges) == 2 and len({v for e in edges for v in e}) == 4
        for edges in (pattern.edges, pattern.absent)
    ):
        return ("signedsquare", 0)
    return ("generic", 0)


def blowup(g: FiniteGraph, k: int) -> FiniteGraph:
    """Replace each node by a cluster of k nodes; clusters inherit edges and
    stay internally unconnected.  At most BLOWUP_NODE_CAP nodes result."""
    if k < 1:
        raise ValueError("blow-up factor must be >= 1")
    if g.n * k > BLOWUP_NODE_CAP:
        raise ValueError(f"blow-up would create {g.n * k} nodes, cap is {BLOWUP_NODE_CAP}")
    return FiniteGraph(np.kron(g.adjacency, np.ones((k, k), dtype=np.int32)))


def canonicalize(q: StepGraphon, merge_tol: float = DEFAULT_MERGE_TOL) -> StepGraphon:
    """Merge blocks with near-identical rows and sort blocks canonically.

    Blocks whose value rows differ by less than merge_tol in mass-weighted L1
    are merged (masses added, rows mass-averaged), closest pair first, until
    no pair qualifies.  Blocks are then ordered by descending mass, then
    descending mass-weighted row sum, then lexicographically by row values.
    Intended for near-duplicate rows; each merge moves pattern densities by
    at most a small multiple of merge_tol.
    """
    if merge_tol < 0:
        raise ValueError("merge_tol must be >= 0")
    c = q.masses.copy()
    p = q.values.copy()
    while c.shape[0] > 1:
        w = np.abs(p[:, None, :] - p[None, :, :]) @ c
        np.fill_diagonal(w, np.inf)
        i, j = np.unravel_index(np.argmin(w), w.shape)
        if w[i, j] >= merge_tol:
            break
        i, j = min(i, j), max(i, j)
        ci, cj = c[i], c[j]
        cm = ci + cj
        row = (ci * p[i] + cj * p[j]) / cm
        diag = (ci * ci * p[i, i] + 2 * ci * cj * p[i, j] + cj * cj * p[j, j]) / cm**2
        p[i] = row
        p[:, i] = row
        p[i, i] = diag
        c[i] = cm
        keep = np.arange(c.shape[0]) != j
        c = c[keep]
        p = p[np.ix_(keep, keep)]
    rowsums = p @ c
    order = sorted(
        range(c.shape[0]),
        key=lambda b: (-c[b], -rowsums[b], tuple(-p[b])),
    )
    idx = np.array(order, dtype=int)
    return StepGraphon(c[idx], p[np.ix_(idx, idx)])
