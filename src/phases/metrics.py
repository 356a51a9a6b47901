"""Distances between step graphons.

cut_distance_upper restricts the node rearrangements of the cut metric to
permutations of a common block refinement, so it is an upper bound on the
true cut distance.  dbar_distance is the weighted sum of pattern-density
differences over a frozen enumeration of small connected graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphon import StepGraphon, SubgraphPattern, _Record, subgraph_density

BLOCK_CAP = 20
_PERM_CAP = 40320  # 8!
_MASS_MATCH_TOL = 1e-9


def _refine_pair(q1: StepGraphon, q2: StepGraphon):
    """Refine both graphons to the common mass profile."""
    cuts = np.concatenate([np.cumsum(q1.masses), np.cumsum(q2.masses)])
    cuts = np.unique(cuts)
    keep = [float(cuts[0])]
    for x in cuts[1:]:
        if x - keep[-1] > 1e-12:
            keep.append(float(x))
    keep[-1] = 1.0
    edges = np.array([0.0] + keep)
    masses = np.diff(edges)
    mids = (edges[:-1] + edges[1:]) / 2.0

    def lookup(q):
        idx = np.minimum(np.searchsorted(np.cumsum(q.masses), mids), q.m - 1)
        return q.values[np.ix_(idx, idx)]

    return masses, lookup(q1), lookup(q2)


def _box_sup(diff_weighted: np.ndarray) -> float:
    """max over block subsets S,T of |sum_{S x T} D| for D = c_i c_j (p1-p2):
    for each T the optimal S collects rows of one sign, so enumerate T only."""
    m = diff_weighted.shape[0]
    best = 0.0
    total = 1 << m
    chunk = 1 << 14
    cols = np.arange(m)
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        bits = ((idx[:, None] >> cols) & 1).astype(float)
        rows = bits @ diff_weighted.T
        pos = np.clip(rows, 0.0, None).sum(axis=1)
        neg = np.clip(-rows, 0.0, None).sum(axis=1)
        best = max(best, float(pos.max()), float(neg.max()))
    return best


def cut_distance_upper(q1: StepGraphon, q2: StepGraphon) -> float:
    """Upper bound on the cut distance: minimum over mass-preserving block
    permutations of the exact box supremum on the common refinement.

    Blocks are matched only when their masses agree within 1e-9; the true
    infimum over all measure-preserving rearrangements can be smaller.
    """
    masses, v1, v2 = _refine_pair(q1, q2)
    m = masses.shape[0]
    if m > BLOCK_CAP:
        raise ValueError(
            f"common refinement has {m} blocks, above the cap {BLOCK_CAP} "
            "(subset enumeration cost is 2^m); merge blocks first"
        )
    order = np.argsort(masses, kind="stable")
    classes: list[list[int]] = []
    for i in order:
        if classes and abs(masses[classes[-1][-1]] - masses[i]) <= _MASS_MATCH_TOL:
            classes[-1].append(int(i))
        else:
            classes.append([int(i)])
    n_perms = 1
    for cl in classes:
        for r in range(2, len(cl) + 1):
            n_perms *= r
        if n_perms > _PERM_CAP:
            raise ValueError(
                "too many equal-mass block matchings to enumerate "
                f"(more than {_PERM_CAP}); reduce the number of equal-mass blocks"
            )
    weight = np.outer(masses, masses)
    best = np.inf
    for assignment in itertools.product(*(itertools.permutations(cl) for cl in classes)):
        sigma = np.empty(m, dtype=int)
        for cl, perm in zip(classes, assignment):
            for src, dst in zip(cl, perm):
                sigma[src] = dst
        diff = weight * (v1 - v2[np.ix_(sigma, sigma)])
        best = min(best, _box_sup(diff))
        if best == 0.0:
            break
    return best


def _connected(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


@lru_cache(maxsize=8)
def connected_patterns(max_order: int) -> tuple[SubgraphPattern, ...]:
    """Frozen enumeration H_1, H_2, ... of connected simple graphs on
    2..max_order vertices, up to isomorphism.

    Ordering: vertex count ascending, then edge count ascending, then the
    lexicographically minimal sorted edge list over all vertex relabelings.
    H_1 is the single edge.  This ordering is part of the dbar file format.
    """
    if max_order > 5:
        raise ValueError("connected-graph enumeration capped at 5 vertices")
    found: list[tuple[int, int, tuple]] = []
    for n in range(2, max_order + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for mask in range(1, 1 << len(pairs)):
            edges = tuple(pairs[b] for b in range(len(pairs)) if mask >> b & 1)
            if not _connected(n, edges):
                continue
            canon = min(
                tuple(sorted(tuple(sorted((s[u], s[v]))) for u, v in edges))
                for s in itertools.permutations(range(n))
            )
            if canon not in seen:
                seen.add(canon)
                found.append((n, len(edges), canon))
    found.sort()
    return tuple(
        SubgraphPattern(n, tuple((u + 1, v + 1) for u, v in canon))
        for n, _, canon in found
    )


@dataclass(frozen=True)
class DbarResult(_Record):
    """Truncated dbar distance with its truncation metadata."""

    value: float
    max_order: int
    graph_count: int
    tail_bound: float

    def __float__(self) -> float:
        return self.value


def dbar_distance(q1: StepGraphon, q2: StepGraphon, max_order: int = 5) -> DbarResult:
    """sum_j |t_{H_j}(q1) - t_{H_j}(q2)| / 2^j over connected graphs H_j with
    at most max_order vertices (see connected_patterns for the frozen
    ordering).  The dropped tail is at most 2^-graph_count."""
    if not 2 <= max_order <= 5:
        raise ValueError("max_order must be between 2 and 5")
    pats = connected_patterns(max_order)
    total = 0.0
    for j, pat in enumerate(pats, start=1):
        total += abs(subgraph_density(q1, pat) - subgraph_density(q2, pat)) / 2.0**j
    return DbarResult(total, max_order, len(pats), 2.0 ** -len(pats))
