"""Permutation limits: pattern densities, permuton entropy, the constrained
variational principle, and exact constrained counting.

Permutons are represented as k x k grid densities with uniform marginals
(every row and column of the cell matrix sums to k).  Pattern evaluation on
grids resolves within-cell ties by independent uniform sub-positions, which
is what the measure-theoretic definition forces; the exact evaluator weights
all orderings consistent with the cell ranks by their exact probabilities, in
O(r^3) per grid of resolution r: a few r x r matrix products per completion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphon import _Record, _count_window
from .gradients import _mv, _vm
from .optimizer import _al, _check_options, _multistart

MARGINAL_TOL = 1e-9
# Exact densities are r x r matrix products while a chain's tie weight is
# t t less 1/12 on a triple tie: for patterns of length <= 3.  They cost
# O(r^3) per grid; the resolution cap bounds the solver, whose r^2 unknowns
# make a two-start solve of 123 take about 3 s at r = 40 on a 2-CPU host.
EXACT_PATTERN_CAP = 3
EXACT_RESOLUTION_CAP = 40
PLAIN_PATTERN_CAP = 6
STAR_PATTERN_CAP = 4
COUNT_N_CAP = 9  # a permutation's count, at most C(9, k) <= 126, fits in uint8
DENSITY_FLOOR = 1e-12
_SINKHORN_SWEEPS = 5000  # project_uniform_marginals refuses a grid still off after these
# _PermutonGeometry's Newton-CG: CG products per direction, the largest
# forcing term of its stop (_newton), and the share of a cell's distance to
# DENSITY_FLOOR that one step may close
_CG_STEPS = 50
_CG_FORCING = 0.5
_TO_BOUNDARY = 0.99


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} stored by its value sequence."""

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError("values must be a bijection on 1..n")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_line(cls, line: str) -> "Permutation":
        return cls(tuple(int(tok) for tok in line.split()))

    def to_line(self) -> str:
        return " ".join(str(v) for v in self.values)


@dataclass(frozen=True)
class StarPattern:
    """A pattern in S_k, optionally with wildcard symbols.

    symbols mixes fixed ranks with None placeholders; the density of a star
    pattern is the sum of the densities of all consistent completions
    (e.g. *2* covers 123 and 321)."""

    symbols: tuple[int | None, ...]

    def __post_init__(self):
        k = len(self.symbols)
        if k < 1:
            raise ValueError("pattern must have length >= 1")
        fixed = [s for s in self.symbols if s is not None]
        if len(set(fixed)) != len(fixed):
            raise ValueError("fixed symbols must be distinct")
        for s in fixed:
            if not 1 <= s <= k:
                raise ValueError(f"symbol {s} outside 1..{k}")

    @property
    def k(self) -> int:
        return len(self.symbols)

    @property
    def is_plain(self) -> bool:
        return all(s is not None for s in self.symbols)

    @classmethod
    def parse(cls, text: str) -> "StarPattern":
        """Parse e.g. "12", "123", "*2*" (single-digit symbols)."""
        syms: list[int | None] = []
        for ch in text.strip():
            if ch == "*":
                syms.append(None)
            elif ch.isdigit() and ch != "0":
                syms.append(int(ch))
            else:
                raise ValueError(f"bad pattern character {ch!r} in {text!r}")
        return cls(tuple(syms))

    def __str__(self) -> str:
        return "".join("*" if s is None else str(s) for s in self.symbols)

    def completions(self) -> tuple[tuple[int, ...], ...]:
        """All plain patterns consistent with the wildcards."""
        k = self.k
        free_pos = [i for i, s in enumerate(self.symbols) if s is None]
        unused = sorted(set(range(1, k + 1)) - {s for s in self.symbols if s is not None})
        out = []
        for fill in itertools.permutations(unused):
            full = list(self.symbols)
            for pos, val in zip(free_pos, fill):
                full[pos] = val
            out.append(tuple(full))
        return tuple(out)


class GridPermuton:
    """Piecewise-constant permuton: a k x k nonnegative cell-density matrix
    g with every row and column summing to k (uniform marginals).

    Convention: g[i][j] covers the x-interval (i/k, (i+1)/k) times the
    y-interval (j/k, (j+1)/k)."""

    __slots__ = ("k", "g")

    def __init__(self, g):
        arr = np.asarray(g, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("cell density matrix must be square")
        k = arr.shape[0]
        if arr.min() < -1e-12:
            raise ValueError("cell densities must be nonnegative")
        arr = np.clip(arr, 0.0, None)
        rows = arr.sum(axis=1)
        cols = arr.sum(axis=0)
        if np.abs(rows - k).max() > MARGINAL_TOL * k or np.abs(cols - k).max() > MARGINAL_TOL * k:
            raise ValueError(
                "marginals are not uniform: row/col sums must equal the resolution"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "g", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GridPermuton is immutable")

    @classmethod
    def uniform(cls, k: int) -> "GridPermuton":
        return cls(np.ones((k, k)))

    def to_dict(self) -> dict:
        return {"k": self.k, "g": self.g.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GridPermuton":
        p = cls(d["g"])
        if int(d.get("k", p.k)) != p.k:
            raise ValueError("k field disagrees with the g matrix shape")
        return p

    def __repr__(self):
        return f"GridPermuton(k={self.k})"


def perm_to_permuton(pi: Permutation) -> GridPermuton:
    """The n x n grid permuton of a permutation: each occupied cell carries
    density n so it integrates to 1/n."""
    n = pi.n
    g = np.zeros((n, n))
    for i, v in enumerate(pi.values):
        g[i, v - 1] = float(n)
    return GridPermuton(g)


def permuton_entropy(gamma: GridPermuton) -> float:
    """(1/k^2) sum of -g ln g over cells, with 0 ln 0 = 0.  Zero exactly on
    the uniform permuton, negative otherwise."""
    g = gamma.g
    mask = g > 0
    val = -np.sum(g[mask] * np.log(g[mask]))
    return float(val) / (gamma.k * gamma.k)


# ---------------------------------------------------------------------------
# pattern densities


def _rank_tuple(values) -> tuple[int, ...]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0] * len(values)
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return tuple(ranks)


def _check_length(pattern: StarPattern, n: int) -> int:
    """The pattern's length k; a ValueError where k exceeds the permutation
    size n or the cap for counting its occurrences."""
    k, cap = pattern.k, PLAIN_PATTERN_CAP if pattern.is_plain else STAR_PATTERN_CAP
    if k > n:
        raise ValueError(f"pattern length {k} exceeds permutation size {n}")
    if k > cap:
        raise ValueError(f"pattern length {k} above cap {cap}")
    return k


def perm_pattern_density(pi: Permutation, pattern: StarPattern) -> Fraction:
    """Fraction of k-subsets of positions whose induced relative order matches
    the pattern (any completion, for star patterns).  Exact rational."""
    k = _check_length(pattern, pi.n)
    wanted = set(pattern.completions())
    count = 0
    vals = pi.values
    for combo in itertools.combinations(range(pi.n), k):
        if _rank_tuple([vals[i] for i in combo]) in wanted:
            count += 1
    return Fraction(count, math.comb(pi.n, k))


def _single(w, u, ut):
    yield np.ones_like(w)


def _pair(w, u, ut):  # 12: the points below and left of a cell, then above and right
    yield ut @ w @ u
    yield u @ w @ ut


def _increasing(w, u, ut):  # 123, the cell as third, second and first point
    f1 = ut @ w @ u
    yield ut @ (f1 * w) @ u
    above = u @ w @ ut
    yield f1 * above
    yield u @ (w * above) @ ut


def _peak(w, u, ut):  # 132, the cell as first, second and third point
    a, b = w @ ut, u @ w
    yield u @ (a * b) @ ut
    f1 = ut @ w @ u
    yield (f1 * b) @ u
    yield ut @ (f1 * a)


def _triple_ties(w, u, ut):  # the -1/12 triple-tie term, the same for every 3-completion
    p, q, pr, qr = ut @ w, u @ w, w @ u, w @ ut
    yield w * w / 144 - (p * q + pr * qr) / 12
    yield w * w / 144 - (u @ (q * w) + (qr * w) @ ut) / 12
    yield w * w / 144 - (ut @ (p * w) + (pr * w) @ u) / 12


# Each plain pattern of length <= 3 as a kernel and the axes of w to reverse:
# reversing x (axis 1) reads a pattern backwards, reversing y complements it.
_COMPLETIONS = {
    (1,): (_single, ()), (1, 2): (_pair, ()), (2, 1): (_pair, (2,)),
    (1, 2, 3): (_increasing, ()), (3, 2, 1): (_increasing, (2,)), (1, 3, 2): (_peak, ()),
    (3, 1, 2): (_peak, (2,)), (2, 3, 1): (_peak, (1,)), (2, 1, 3): (_peak, (1, 2)),
}


class _PatternDensity:
    """Exact density of a star pattern on a batch of grid permutons g
    (B, r, r), and its gradient in g, by r x r matrix products.

    With w = g / r^2, a completion tau of length k has density
    k! sum T[a] T[x] prod_t w[a_t, x_(tau_t)]: the points' x-cells a and
    their y-cells x in the order tau are weakly increasing, and T gives s
    points in one cell weight 1/s!.  For k <= 3, T[a] = t(a1, a2) t(a2, a3)
    - [a1 = a2 = a3] / 12, with t(i, j) = 1 if i < j, 1/2 if i = j, else 0.
    So with U = t, the sum over chains with point j in each cell (slot j of
    the gradient) is a few products with U and U^T: O(r^3) per grid and
    completion.  A kernel above yields the slots on w (B, r, r); the first,
    summed against w, is the value, and the rest run only for the gradient.
    Every product runs per grid, so a grid's result does not depend on its
    batch."""

    def __init__(self, pattern: StarPattern, res: int):
        if pattern.k > EXACT_PATTERN_CAP:
            raise ValueError(f"exact pattern densities support length <= {EXACT_PATTERN_CAP}")
        if res > EXACT_RESOLUTION_CAP:
            raise ValueError(f"exact pattern densities support resolution <= {EXACT_RESOLUTION_CAP}")
        self.k, self.res = pattern.k, res
        u = np.triu(np.ones((res, res)), 1) + 0.5 * np.eye(res)  # U[i, j] = t(i, j)
        self.steps = u, np.ascontiguousarray(u.T)
        self.parts = [(*_COMPLETIONS[tau], 1) for tau in pattern.completions()]
        if self.k == 3:
            self.parts.append((_triple_ties, (), len(self.parts)))

    def __call__(self, g: np.ndarray, grad: bool = False):
        """(densities (B,), gradients (B, r, r) or None without grad)."""
        scale = self.res * self.res
        w = g / scale
        val, dw = np.zeros(len(g)), np.zeros_like(w)
        for kernel, axes, times in self.parts:
            wf = np.ascontiguousarray(np.flip(w, axes))  # BLAS takes no negative strides
            slots = kernel(wf, *self.steps)
            first = next(slots)
            val += times * (wf * first).sum(axis=(1, 2))
            if grad:
                dw += times * np.flip(sum(slots, first), axes)
        fact = math.factorial(self.k)
        return fact * val, (fact / scale * dw if grad else None)


def _matches(columns, pattern: StarPattern) -> np.ndarray:
    """Whether the order type of each point (columns[0][i], ...,
    columns[k - 1][i]), whose entries are distinct, is a completion of the
    pattern.

    A point's code has one bit per pair i < j of positions, set when
    columns[i] < columns[j]; it is built in place in a uint8 buffer (uint16
    past 8 pairs) and compared with the code of each completion.  The
    completions are distinct order types, so a point matches at most one."""
    pairs = list(itertools.combinations(range(pattern.k), 2))
    dtype = np.uint8 if len(pairs) <= 8 else np.uint16

    def codes(cols):
        code, less = np.zeros(len(cols[0]), dtype), np.empty(len(cols[0]), dtype)
        for i, j in pairs:
            np.less(cols[i], cols[j], out=less)
            code += code  # the bits so far move up one
            code += less
        return code

    code = codes(columns)
    out, hit = np.zeros(len(code), dtype=bool), np.empty(len(code), dtype=bool)
    for c in codes(np.array(pattern.completions()).T).tolist():
        out |= np.equal(code, c, out=hit)
    return out


def permuton_pattern_density(
    gamma: GridPermuton,
    pattern: StarPattern,
    method: str = "exact",
    samples: int = 200_000,
    seed: int = 0,
) -> float:
    """Probability that k independent points of the permuton, sorted by x,
    induce the pattern (summed over completions for star patterns).

    method="exact" integrates cell by cell with exact within-cell tie
    weights, as O(r^3) matrix products on the r x r grid (pattern length
    <= 3, resolution <= 40); method="montecarlo" samples k points per draw
    and reads off the induced pattern, over samples >= 1 draws.
    """
    k = pattern.k
    if method == "exact":
        density = _PatternDensity(pattern, gamma.k)
        return 1.0 if k == 1 else float(density(gamma.g[None])[0][0])
    if method == "montecarlo":
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if k > PLAIN_PATTERN_CAP:
            raise ValueError(f"pattern length above cap {PLAIN_PATTERN_CAP}")
        if k == 1:
            return 1.0
        rng = np.random.default_rng(seed)
        res = gamma.k
        probs = (gamma.g / (res * res)).reshape(-1)
        probs = probs / probs.sum()
        cells = rng.choice(res * res, size=(samples, k), p=probs)
        ix = cells // res
        iy = cells % res
        x = (ix + rng.random((samples, k))) / res
        y = (iy + rng.random((samples, k))) / res
        order = np.argsort(x, axis=1)
        return float(_matches(np.take_along_axis(y, order, axis=1).T, pattern).mean())
    raise ValueError(f"unknown method {method!r}")


def project_uniform_marginals(g: np.ndarray) -> np.ndarray:
    """Alternating row/column renormalization onto the uniform-marginal
    manifold (row and column sums equal to the resolution), of one grid
    (k, k) or of each grid of a batch (B, k, k).  A grid whose sums are
    already within MARGINAL_TOL k of k is returned unchanged.  Each grid
    stops once within that tolerance, so a grid of a batch ends as it would
    alone.  A column step leaves the column sums exact up to rounding, so
    after the first sweep only the row sums are tested.  A ValueError names
    the largest gap of a grid still outside the tolerance after
    _SINKHORN_SWEEPS sweeps."""
    out = np.clip(np.asarray(g, dtype=float), 0.0, None)
    grids = out.reshape(-1, *out.shape[-2:])
    k = out.shape[-1]

    def off(sums):
        return np.abs(sums - k).max(axis=-1) > MARGINAL_TOL * k

    rows = grids.sum(axis=-1)
    busy = off(rows) | off(grids.sum(axis=-2))
    idx, rows = np.flatnonzero(busy), rows[busy]  # the grids still scaled
    act = grids[idx]
    for _ in range(_SINKHORN_SWEEPS):
        if not idx.size:
            break
        act *= (k / np.maximum(rows, 1e-300))[:, :, None]
        act *= (k / np.maximum(act.sum(axis=-2), 1e-300))[:, None, :]
        rows = act.sum(axis=-1)
        busy = off(rows)
        if not busy.all():
            grids[idx[~busy]] = act[~busy]
            idx, rows, act = idx[busy], rows[busy], act[busy]
    if idx.size:
        gap = np.abs(np.concatenate([rows, act.sum(axis=-2)], axis=-1) - k).max()
        raise ValueError(f"Sinkhorn scaling left a marginal {gap:.3g} from {k} "
                         f"after {_SINKHORN_SWEEPS} sweeps")
    return out


# ---------------------------------------------------------------------------
# constrained entropy over permutons


@dataclass(frozen=True)
class PermutonOptimizerOptions:
    """Solver settings that some caller sets: n_starts and seed (the CLI's
    perm-optimize --starts, --seed), feasibility_tol (perfbench/workloads.py
    checks solutions against it), max_outer and max_inner (AL rounds, ascent
    steps per round; set by perfbench/warmup.py).  The penalty schedule and
    the stationarity tolerance are phases.optimizer's (`_ascend`), floored at
    _PermutonGeometry.gtol."""

    n_starts: int = 16
    seed: int = 0
    feasibility_tol: float = 1e-8
    max_outer: int = 12
    max_inner: int = 400

    def __post_init__(self):
        _check_options(self)


@dataclass(frozen=True)
class PermutonOptimizerResult(_Record):
    permuton: GridPermuton
    entropy: float
    residuals: tuple[float, ...]
    feasible: bool
    degenerate: bool


def _perm_entropy(g: np.ndarray):
    """Entropy (B,) of a batch of grids (B, k, k) floored at DENSITY_FLOOR,
    and its gradient in g."""
    k2 = g.shape[-1] ** 2
    gc = np.clip(g, DENSITY_FLOOR, None)
    log_g = np.log(gc)
    # 0.0 - s, not -s: the uniform grid's entropy is 0.0, not -0.0
    return 0.0 - (gc * log_g).sum(axis=(1, 2)) / k2, (-log_g - 1.0) / k2


class _PermutonGeometry:
    """Grid permutons at resolution r for the AL driver of phases.optimizer:
    theta = g (flattened), a point is (g,).  Directions are Newton-CG
    (Nocedal & Wright 2006, sec. 7.1) on the grids with zero row and column
    sums, which keep the marginals exact up to rounding; a cell within 2
    DENSITY_FLOOR of the floor whose step points down is held, and step 1,
    each row's first trial, closes at most _TO_BOUNDARY of any cell's
    distance to the floor.  So `project` is the floor clip, and Sinkhorn
    scaling runs only at the ends of a solve: on the random starts, and in
    `finish`, which measures the grids after projecting them, so every
    reported gap is that of a grid with uniform marginals."""

    keys = ("g",)
    gtol = 1e-10

    def __init__(self, constraints, res: int):
        self.evals = [_PatternDensity(p, res) for p, _ in constraints]
        self.targets = np.array([t for _, t in constraints])
        self.res = res

    def start(self, g):
        return np.clip(g, DENSITY_FLOOR, None).reshape(len(g), -1)

    def point(self, theta):
        return (theta.reshape(-1, self.res, self.res),)

    def measure(self, g):
        gaps = np.empty((len(g), len(self.evals)))
        for j, ev in enumerate(self.evals):
            gaps[:, j] = ev(g)[0] - self.targets[j]
        return _perm_entropy(g)[0], gaps

    def project(self, theta):
        return np.maximum(theta, DENSITY_FLOOR)

    def stationarity(self, theta, grad):
        """Each row's largest entry of its AL gradient's tangent part
        (double-centred)."""
        grad = grad.reshape(-1, self.res, self.res)
        centred = (grad - grad.mean(axis=1, keepdims=True) - grad.mean(axis=2, keepdims=True)
                   + grad.mean(axis=(1, 2), keepdims=True))
        return np.abs(centred).max(axis=(1, 2))

    def grads(self, theta, lam, rho):
        """(AL value, gaps, AL gradient in g, entropy) per row."""
        (g,) = self.point(theta)
        h, grad = _perm_entropy(g)
        gaps = np.empty((len(g), len(self.evals)))
        for j, ev in enumerate(self.evals):
            t, dt = ev(g, grad=True)
            gaps[:, j] = t - self.targets[j]
            grad = grad - (lam[:, j] + rho * gaps[:, j])[:, None, None] * dt
        return _al(h, gaps, lam, rho), gaps, grad.reshape(len(g), -1), h

    def direction(self, theta, grad, lam, rho):
        """Newton-CG directions, solved again while a cell near the floor that
        is not held steps down."""
        (g,) = self.point(theta)
        dens = [ev(g, grad=True) for ev in self.evals]
        coef = lam + rho[:, None] * (np.stack([t for t, _ in dens], axis=1) - self.targets)
        low, held, d = g <= 2.0 * DENSITY_FLOOR, np.zeros(g.shape, dtype=bool), np.empty_like(g)
        rows = np.arange(len(g))  # rows whose direction is still to be found
        while rows.size:
            d[rows] = self._newton(g[rows], grad.reshape(g.shape)[rows], held[rows], coef[rows],
                                   rho[rows], [dt[rows] for _, dt in dens])
            out = low[rows] & (d[rows] < 0.0) & ~held[rows]
            held[rows] |= out
            rows = rows[out.any(axis=(1, 2))]
        room = np.divide(g - DENSITY_FLOOR, -d, out=np.full_like(d, np.inf), where=d < 0.0)
        step = np.minimum(1.0, _TO_BOUNDARY * room.min(axis=(1, 2)))
        return (d * step[:, None, None]).reshape(len(g), -1)

    def _newton(self, g, grad, held, coef, rho, dts):
        """Truncated projected CG (Gould, Hribar & Nocedal 2001) on B d = grad,
        B = -(AL Hessian), over tangent grids that are 0 on held cells.  A row
        stops at a preconditioned residual norm min(_CG_FORCING, sqrt(first))
        times the first, at negative curvature (where that is the first step,
        d is the preconditioned gradient) or after _CG_STEPS products."""
        tangent, d = self._tangent(np.where(held, 0.0, self.res**2 * g)), np.zeros_like(g)
        p, res = tangent(tangent(grad, slice(None))[1], slice(None))  # twice: grad may be mostly normal
        rz = (res * p).sum(axis=(1, 2))
        stop = np.minimum(_CG_FORCING**2, np.sqrt(np.maximum(rz, 0.0))) * rz
        rows = np.flatnonzero(rz > stop)
        for it in range(_CG_STEPS):
            if not rows.size:
                break
            pr = p[rows]
            bp = self._curvature(g[rows], pr, coef[rows], rho[rows], [dt[rows] for dt in dts])
            curv = (pr * bp).sum(axis=(1, 2))
            neg = curv <= 0.0
            if it == 0:
                d[rows[neg]] = pr[neg]
            alpha = np.where(neg, 0.0, rz[rows] / np.where(neg, 1.0, curv))[:, None, None]
            d[rows] += alpha * pr
            z, res[rows] = tangent(res[rows] - alpha * bp, rows)
            rz_new = (res[rows] * z).sum(axis=(1, 2))
            p[rows] = z + (rz_new / rz[rows])[:, None, None] * pr
            rz[rows] = rz_new
            rows = rows[~neg & (rz_new > stop[rows])]
        return d

    @staticmethod
    def _tangent(dw):
        """CG's preconditioner D = dw, the inverse of the entropy's Hessian
        where not held, on the tangent space: x on the rows sel to (D y, y),
        y = x - a 1^T - 1 b^T with the potentials that give D y zero row and
        column sums, b from a pseudo-inverted weighted Laplacian.  y, the
        residual less its normal part, keeps CG's rounding small."""
        rows = dw.sum(axis=2)
        lap = (np.eye(dw.shape[1]) * dw.sum(axis=1)[:, None, :]
               - np.swapaxes(dw, 1, 2) @ (dw / rows[:, :, None]))
        inv = np.linalg.pinv(lap, rcond=1e-14, hermitian=True)

        def apply(x, sel):
            d, rs_d = dw[sel], rows[sel]
            rs = (d * x).sum(axis=2)
            b = _mv(inv[sel], (d * x).sum(axis=1) - _vm(rs / rs_d, d))
            y = x - ((rs - _mv(d, b)) / rs_d)[:, :, None] - b[:, None, :]
            return d * y, y

        return apply

    def _curvature(self, g, p, coef, rho, dts):
        """B p per row: p / (r^2 g) and, per density t, coef (Hessian of t) p
        + rho (grad t . p) grad t.  The Hessian product is a central difference
        of gradients at g +- s p, exact up to rounding for patterns of length
        <= 3, whose gradients are quadratic in g."""
        n, out = len(g), p / (self.res**2 * g)
        s = (np.abs(g).max(axis=(1, 2)) / np.maximum(np.abs(p).max(axis=(1, 2)), 1e-300))[:, None, None]
        for ev, dt, c in zip(self.evals, dts, coef.T):
            dd = ev(np.concatenate([g + s * p, g - s * p]), grad=True)[1]
            out += c[:, None, None] * (dd[:n] - dd[n:]) / (2.0 * s)
            out += (rho * (dt * p).sum(axis=(1, 2)))[:, None, None] * dt
        return out

    def finish(self, theta, gaps, h):
        g = project_uniform_marginals(self.point(theta)[0])
        return zip(((gi,) for gi in g), *self.measure(g))


def maximize_permuton_entropy(
    constraints,
    resolution: int,
    opts: PermutonOptimizerOptions | None = None,
) -> PermutonOptimizerResult:
    """Maximize permuton entropy over grid permutons subject to star-pattern
    density constraints: the augmented-Lagrangian multistart driver of
    phases.optimizer, the one the graphon solver runs, on the permuton
    geometry (Newton-CG steps that keep the marginals uniform).  The starts
    are the uniform permuton, which also joins the pool as it is when
    feasible, and random grids.

    constraints: sequence of (StarPattern, target).  Infeasibility (no start
    reaches the tolerance) is reported explicitly; `degenerate` flags runs
    that collapsed onto the density floor (singular-permuton limits).
    """
    if not 1 <= resolution <= EXACT_RESOLUTION_CAP:
        raise ValueError(f"resolution must lie in 1..{EXACT_RESOLUTION_CAP}, got {resolution}")
    opts = opts or PermutonOptimizerOptions()
    geo = _PermutonGeometry([(p, float(t)) for p, t in constraints], resolution)
    rng = np.random.default_rng(opts.seed)
    starts = [(np.ones((resolution, resolution)),)]
    if opts.n_starts > 1:
        raw = rng.uniform(0.2, 1.8, (opts.n_starts - 1, resolution, resolution))
        starts += [(g,) for g in project_uniform_marginals(raw)]
    best, _ = _multistart(geo, starts, starts[:1], opts)
    g, feasible = best["g"], best["feasible"]  # finish has projected g
    return PermutonOptimizerResult(
        permuton=GridPermuton(g),
        entropy=best["objective"],
        residuals=tuple(float(r) for r in best["residuals"]),
        feasible=feasible,
        degenerate=not feasible or bool(g.min() <= 10 * DENSITY_FLOOR),
    )


# ---------------------------------------------------------------------------
# exact counting


@dataclass(frozen=True)
class PermCountReport(_Record):
    """Exact |Lambda_n| and the normalized log-count (1/n) ln(|Lambda|/n!)."""

    n: int
    count: int
    total: int
    log_normalized: float
    constraints: tuple[tuple[str, float], ...]
    delta: float


def _all_perms(n: int) -> np.ndarray:
    """All n! permutations of 1..n as int8 rows, in the lexicographic order
    of itertools.permutations: the rows starting with f are f followed by
    the table of n - 1, its values from f up shifted by one."""
    table = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        first = np.repeat(np.arange(k, dtype=np.int8), len(table))[:, None]
        rest = np.tile(table, (k, 1))
        table = np.concatenate([first, rest + (rest >= first)], axis=1)
    return table + np.int8(1)


def count_constrained_perms(n: int, constraints, delta: float) -> PermCountReport:
    """Exhaustively count permutations in S_n whose pattern densities lie
    strictly inside (alpha_j - delta, alpha_j + delta); density comparisons
    are exact rational arithmetic."""
    if n > COUNT_N_CAP:
        raise ValueError(f"exhaustive counting capped at n = {COUNT_N_CAP}")
    if n < 1:
        raise ValueError("n must be positive")
    constraints = [(p, float(t)) for p, t in constraints]
    # position by position, so a combination's columns are views
    columns = np.ascontiguousarray(_all_perms(n).T)
    total = columns.shape[1]
    ok = np.ones(total, dtype=bool)
    for pattern, alpha in constraints:
        k = _check_length(pattern, n)
        counts = np.zeros(total, dtype=np.uint8)
        for combo in itertools.combinations(range(n), k):
            np.add(counts, _matches([columns[i] for i in combo], pattern), out=counts)
        lo, hi = _count_window(alpha, delta, math.comb(n, k))
        ok &= (counts >= lo) & (counts <= hi)
    count = int(ok.sum())
    log_norm = -math.inf if count == 0 else (math.log(count) - math.lgamma(n + 1)) / n
    return PermCountReport(
        n=n,
        count=count,
        total=total,
        log_normalized=log_norm,
        constraints=tuple((str(p), t) for p, t in constraints),
        delta=float(delta),
    )
