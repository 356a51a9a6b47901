"""Constrained entropy maximization over m-podal step graphons.

Implements the variational principle: maximize graphon Shannon entropy
subject to pattern-density constraints, by an augmented Lagrangian (AL)
whose inner ascent takes projected-Newton steps, with analytic gradients and
deterministic multistart.  Block values are kept strictly inside (0,1)
during ascent because the entropy gradient diverges at the endpoints;
masses are optimized as normalized positive variables so they stay exactly
on the simplex.

One AL driver (`_multistart`, `_ascend`, `_backtrack`) solves every start of
one problem as one NumPy batch of flat parameter rows theta, in which each
start takes the same steps, up to rounding, as it would alone.  It owns the
rules both problems share: multipliers and penalty schedule, Armijo
backtracking from step 1, the stationarity, stall and hopeless-start stops
and the best-pick.  A geometry object supplies the rest: `_GraphonGeometry`
here (theta = masses and upper-triangle values; Newton directions from a
finite-difference AL Hessian in coordinates that keep the masses on the
simplex, and a Newton-KKT finish of the feasible rows), and
`phases.permuton._PermutonGeometry` (theta = a grid permuton; Newton-CG
directions on the grids with zero row and column sums, which keep the
marginals uniform up to rounding, so Sinkhorn scaling runs only on the
starts and the finished grids).  The Armijo test's gain is the driver's
own, read from the geometry's gradient (`_backtrack`), and so is the
stationarity tolerance, per row, which it compares with the geometry's
measure (`_gtol`): an AL round of a row that is not yet feasible is solved
inexactly, to max(gtol, _INEXACT_GTOL / rho), and a feasible row to the
geometry's floor gtol.

`constrained_entropy` escalates the podality ansatz m = 1, 2, ... and stops
at an m whose best graphon passes a block-insertion certificate.  At a
feasible m the multipliers fit the KKT equations and no new block of
infinitesimal mass, whatever its row, raises the Lagrangian to first order
(the vertex form of the Euler-Lagrange equations of Radin & Sadun 2013 and
Kenyon, Radin, Ren & Sadun 2017).  While no m is feasible the same test reads
the residual -|t(q) - alpha|^2 / 2 instead: neither the graphon's own
coordinates nor a new block lower it to first order.  The row is searched by
the same driver's projected-Newton ascent, on `_InsertionGeometry`.  One rule
ranks the starts of an m and the sizes alike (`_rank`), and one says when two
tie (`_no_worse`: entropies within _ESCALATION_TOL, worst residuals within a
relative _RESIDUAL_TIE_RTOL plus feasibility_tol).  Where the certificate
fails, the escalation stops after two sizes that the best is no worse than.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .gradients import DensityEvaluator, EntropyObjective, _dot, _mv, _vm, mass_chain_rule
from .graphon import (
    ConstraintVector,
    StepGraphon,
    SubgraphPattern,
    _Record,
    canonicalize,
    graphon_entropy,
)

M_CAP = 16
# see _no_worse: how close two infeasible closest approaches tie; also the
# residual certificate's relative tolerance (_insertion_certificate)
_RESIDUAL_TIE_RTOL = 1e-3
_VALUE_FLOOR = 1e-9  # block values stay this far inside (0,1)
_MASS_FLOOR = 1e-6  # and masses at least this large
_ESCALATION_TOL = 1e-7  # an entropy gain below this is no gain in the m-escalation
_SYMMETRIC_TOL = 5e-3  # how far a symmetric bipodal is from equal halves and diagonals
_BASIN_TOL = 1e-3  # canonical solutions that round alike on this grid share a basin
_PENALTY_INIT = 10.0  # each start's AL penalty, multiplied by _PENALTY_GROWTH
_PENALTY_GROWTH = 5.0  # after every round that does not stop the start
# an infeasible row's ascent stops at stationarity max(gtol, _INEXACT_GTOL / rho)
# (_gtol): early AL rounds are solved only as far as their penalty warrants
_INEXACT_GTOL = 1e-3
# The block-insertion certificate (_insertion_certificate).  Moving mass
# delta <= 1 onto a new block raises the Lagrangian by delta * gain + O(delta^2),
# so a gain at most _ESCALATION_TOL starts no m + 1 gain that the escalation
# would count.  The cells it stops on the optimize panel, the criterion 2
# and 3 targets and the bench scan tile read gains below 1e-15 and KKT
# residuals below 3e-13; on a 64-target edge/triangle grid at the scan
# defaults it stops 62 cells, which read at most 1.5e-13 and 6e-12, and
# m + 1 then gains at most 4.2e-8, an AL point within feasibility_tol.
# Criterion 6's (0.5, 0.15) stops at m = 2 with 1.1e-14 and 8.7e-14.
_INSERTION_TOL = _ESCALATION_TOL
_KKT_TOL = 1e-9
_INSERTION_MASS = 2.0**-30  # new-block mass at which its row gradient is read
_INSERTION_RANDOM_ROWS = 4  # random rows the ascent starts from, with the old rows
_INSERTION_STEPS = 15  # ascent steps per row
# _GraphonGeometry's Newton steps: the central-difference step of the AL
# Hessian in theta, the smallest eigenvalue magnitude a Newton direction
# divides by (smaller ones count as 0 in the KKT finish), the finish's
# Newton-KKT steps, and the largest gap a finished point may keep
_HESSIAN_STEP = 1e-5
_EIG_FLOOR = 1e-8
_KKT_STEPS = 3
_KKT_GAP = 1e-12


@dataclass(frozen=True)
class OptimizerOptions:
    """Solver settings that some caller sets: n_starts, seed, feasibility_tol
    and m_max (the CLI's --starts, --seed, --tol, --m-max), max_outer and
    max_inner (AL rounds, ascent steps per round; set by perfbench/warmup.py).
    Fixed tolerances are constants of this module and of each geometry."""

    n_starts: int = 40
    seed: int = 0
    feasibility_tol: float = 1e-8
    max_outer: int = 12
    max_inner: int = 300
    m_max: int = 6

    def __post_init__(self):
        _check_options(self)
        if not (isinstance(self.m_max, (int, np.integer)) and 1 <= self.m_max <= M_CAP):
            raise ValueError(f"m_max must lie in 1..{M_CAP}, got {self.m_max}")


def _check_options(opts) -> None:
    """ValueError for a field of OptimizerOptions or PermutonOptimizerOptions
    outside its range."""
    for name, low in (("n_starts", 1), ("seed", 0), ("max_outer", 1), ("max_inner", 1)):
        if not isinstance(value := getattr(opts, name), (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if not (isinstance(tol := opts.feasibility_tol, numbers.Real) and 0.0 < tol < math.inf):
        raise ValueError(f"feasibility_tol must be positive and finite, got {tol!r}")


@dataclass(frozen=True)
class OptimizerResult(_Record):
    """Outcome of a constrained entropy maximization."""

    graphon: StepGraphon
    entropy: float
    residuals: tuple[float, ...]
    podality: int
    symmetric_bipodal: bool
    constant: bool
    multistart_spread: float | None
    feasible: bool
    m: int
    # largest first-order gain of inserting a block (see constrained_entropy);
    # None where no certificate ran
    insertion_gain: float | None = None
    # why constrained_entropy stopped: "certified", "no_gain", "ties" or
    # "m_max"; None from maximize_entropy
    escalation_stop: str | None = None

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["flags"] = {k: d.pop(k) for k in ("symmetric_bipodal", "constant")}
        return d


@dataclass(frozen=True)
class SignedMaxResult(_Record):
    """Outcome of maximizing one signed density subject to another being zero."""

    value: float
    graphon: StepGraphon
    residual: float
    feasible: bool
    m: int


# ---------------------------------------------------------------------------
# closed forms


def reference_construction(eps: float, tau: float) -> StepGraphon:
    """Closed-form bipodal graphon with edge density eps and triangle density
    tau (see _bipodal).  Raises ValueError for (eps, tau) outside the union of
    the two branch ranges."""
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"edge density must lie in (0, 0.5], got {eps}")
    if tau < 0.0 or tau > eps**1.5 + 1e-12:
        raise ValueError(f"triangle density {tau} outside [0, eps^(3/2)]")
    q = _bipodal(eps, tau, slack=1e-12)
    if q is None:
        top = min(1.0, 2.0 * eps)
        top_tau = (top**3 + 3.0 * top * (2.0 * eps - top) ** 2) / 4
        raise ValueError(f"triangle density {tau} above the symmetric bipodal branch "
                         f"(max {top_tau:.6g} at edge density {eps})")
    return q


def _bipodal(eps: float, tau: float, slack: float = 0.0) -> StepGraphon | None:
    """Equal-mass bipodal graphon with edge density eps and triangle density tau.

    For tau <= eps^3: equal halves with diagonal eps - x and off-diagonal
    eps + x, x = (eps^3 - tau)^(1/3).  For tau > eps^3: the symmetric bipodal
    branch, diagonal a and off-diagonal d = 2 eps - a with a the unique root
    of the nondecreasing cubic a^3 + 3 a d^2 = 4 tau.  None where the halves'
    values leave [0,1] or the cubic stays more than slack below 4 tau."""
    e3 = eps**3
    if tau <= e3:
        x = float(np.cbrt(e3 - tau))
        if eps - x < 0.0 or eps + x > 1.0:
            return None
        return StepGraphon([0.5, 0.5], [[eps - x, eps + x], [eps + x, eps - x]])
    a = _symmetric_branch_root(eps, tau, slack)
    if a is None:
        return None
    d = 2.0 * eps - a
    return StepGraphon([0.5, 0.5], [[a, d], [d, a]])


def _symmetric_branch_root(eps: float, tau: float, slack: float = 0.0) -> float | None:
    """Diagonal a of the symmetric bipodal branch: the root in [eps, min(1, 2 eps)]
    of the nondecreasing cubic a^3 + 3 a (2 eps - a)^2 = 4 tau, bisected to the
    last float; None when the cubic stays more than slack below 4 tau."""

    def f(a: float) -> float:
        d = 2.0 * eps - a
        return a**3 + 3.0 * a * d * d - 4.0 * tau

    lo, hi = eps, min(1.0, 2.0 * eps)
    if f(hi) < -slack:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def staircase_graphon(m: int) -> StepGraphon:
    """m-block 0/1 staircase approximating the half graphon q = 1 on x+y <= 1.

    Has signed-square density exactly 0 and signed-2-star density
    (m^2 - 1) / (6 m^2)."""
    p = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i + j <= m - 2:
                p[i, j] = 1.0
    return StepGraphon(np.full(m, 1.0 / m), p)


def _split_to_m(q: StepGraphon, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Embed q into exactly m blocks by halving the largest block; the result
    represents the same graphon."""
    if q.m > m:
        return None
    c = list(q.masses)
    p = q.values.copy()
    while len(c) < m:
        i = int(np.argmax(c))
        half = c[i] / 2.0
        c[i] = half
        c.append(half)
        row = p[i].copy()
        p = np.pad(p, ((0, 1), (0, 1)))
        p[-1, :-1] = row
        p[:-1, -1] = row
        p[-1, -1] = p[i, i]
        p[i, -1] = p[-1, i] = p[i, i]
    return np.array(c), p


def _closed_form_candidates(constraints: ConstraintVector) -> list[StepGraphon]:
    pats = constraints.patterns
    cands: list[StepGraphon] = []
    by_pat = {p: t for p, t in constraints.terms}
    edge = SubgraphPattern.edge()
    tri = SubgraphPattern.triangle()
    if set(pats) == {edge, tri}:
        eps, tau = by_pat[edge], by_pat[tri]
        cands.append(StepGraphon.constant(eps))
        q = _bipodal(eps, tau)
        if q is not None:
            cands.append(q)
        cands.append(StepGraphon.bipodal(0.5, 0.0, 0.0, min(1.0, 2.0 * eps)))
        if 0.0 < eps < 1.0:
            lam = math.sqrt(eps)
            cands.append(StepGraphon.bipodal(lam, 1.0, 0.0, 0.0))
    else:
        for pat, t in constraints.terms:
            e = len(pat.edges)
            if e > 0 and not pat.absent and 0.0 < t < 1.0:
                cands.append(StepGraphon.constant(t ** (1.0 / e)))
        cands.append(StepGraphon.constant(0.5))
    return cands


# ---------------------------------------------------------------------------
# augmented-Lagrangian solver


@lru_cache(maxsize=None)
def _triu(m: int):
    """Upper-triangle indices of m x m, and each entry's upper-triangle position."""
    iu = np.triu_indices(m)
    pos = np.zeros((m, m), dtype=int)
    pos[iu] = pos[iu[1], iu[0]] = np.arange(len(iu[0]))
    return iu, pos


def _sym_from_triu(u: np.ndarray, m: int) -> np.ndarray:
    """Symmetric values (..., m, m) from upper-triangle entries (..., T), in C
    order: a strided layout would make BLAS round a row unlike a single graphon."""
    return np.take(u, _triu(m)[1], axis=-1)


def _al(obj, g, lam, rho):
    """AL objective obj - lam . g - rho |g|^2 / 2, per row."""
    return obj - _dot(lam, g) - 0.5 * rho * _dot(g, g)


class _GraphonGeometry:
    """m-block step graphons for the AL driver: theta = (masses, upper-triangle
    values), a point is (c, p).

    The driver sees a problem only through such a geometry: `start` and
    `point` map batches of points to theta and back, `measure` gives the
    objective and constraint gaps of a batch of points, `project` moves rows
    of theta back into the domain, `grads` gives the AL value and gradient,
    `direction` each row's ascent direction, and `finish` yields each final
    row as (point, objective, gaps); `stationarity` gives each row's measure
    of how far it is from stationary, which `_ascend` compares with a
    tolerance of its own, never below the geometry's floor `gtol` (`_gtol`).
    Only `_backtrack` sets the step size: every row's first trial is a full
    step along its direction.  _InsertionGeometry and phases.permuton define
    the other geometries.

    Here the direction is projected Newton (Bertsekas 1982) in reduced
    coordinates x: mass directions e_i - e_ref, ref the row's largest mass,
    which keep the masses on the simplex, and the values.  A coordinate on
    its floor or ceiling whose gradient points out is held fixed, the AL
    Hessian in x (`_hessian`) is made negative definite by flipping and
    flooring its eigenvalues at _EIG_FLOOR.
    `finish` replaces the AL point of a feasible row by a Newton-KKT point
    where that is a strict local maximum (`_kkt`)."""

    keys = ("c", "p")
    gtol = 1e-9

    def __init__(self, objective, evals, targets, m, opts):
        self.objective, self.evals, self.targets, self.m, self.opts = (
            objective, evals, targets, m, opts)
        free = len(_triu(m)[0][0])
        # per reduced coordinate: at or below near_lo it is on its floor, at
        # or above near_hi on its ceiling (masses have none)
        self.near_lo = np.repeat([2.0 * _MASS_FLOOR, 2.0 * _VALUE_FLOOR], [m - 1, free])
        self.near_hi = np.repeat([np.inf, 1.0 - 2.0 * _VALUE_FLOOR], [m - 1, free])

    def start(self, c, p):
        (iu0, iu1), _ = _triu(self.m)
        return np.concatenate([c, np.clip(p[:, iu0, iu1], _VALUE_FLOOR, 1.0 - _VALUE_FLOOR)],
                              axis=1)

    def point(self, theta):
        return theta[:, : self.m], _sym_from_triu(theta[:, self.m :], self.m)

    def measure(self, c, p):
        g = np.empty((len(c), len(self.evals)))
        for j, ev in enumerate(self.evals):
            g[:, j] = ev.value(c, p) - self.targets[j]
        return self.objective.value(c, p), g

    def project(self, theta):
        """Masses floored and the others rescaled to the rest of the unit
        sum, so that a mass on its floor stays there; values kept inside
        (0,1)."""
        m = self.m
        w = np.maximum(theta[:, :m], _MASS_FLOOR)
        floored = w == _MASS_FLOOR
        rest = np.where(floored, 0.0, w)
        scale = (1.0 - _MASS_FLOOR * floored.sum(axis=1)) / rest.sum(axis=1)
        u = np.minimum(np.maximum(theta[:, m:], _VALUE_FLOOR), 1.0 - _VALUE_FLOOR)
        return np.concatenate([np.where(floored, w, w * scale[:, None]), u], axis=1)

    def stationarity(self, theta, grad):
        """Each row's largest projected-gradient step in theta."""
        return np.abs(self.project(theta + grad) - theta).max(axis=1)

    def grads(self, theta, lam, rho):
        """(AL value, gaps, AL gradient in theta, objective) per row."""
        c, p = self.point(theta)
        obj, dv, dc = self.objective.value_and_grads(c, p)
        g = np.empty((len(c), len(self.evals)))
        for j, ev in enumerate(self.evals):
            t, dvj, dcj = ev.value_and_grads(c, p)
            g[:, j] = t - self.targets[j]
            coef = lam[:, j] + rho * g[:, j]
            dv = dv - coef[:, None, None] * dvj
            dc = dc - coef[:, None] * dcj
        return _al(obj, g, lam, rho), g, _theta_grads(c, dv, dc), obj

    def _basis(self, theta):
        """Per row, the theta directions of the reduced coordinates as
        columns, (n, m + T, m - 1 + T)."""
        n, d = theta.shape
        m = self.m
        ref = theta[:, :m].argmax(axis=1)
        k = np.arange(m - 1)
        rows, others = np.arange(n)[:, None], k + (k >= ref[:, None])
        basis = np.zeros((n, d, d - 1))
        basis[rows, others, k] = 1.0
        basis[rows, ref[:, None], k] = -1.0
        basis[:, m:, m - 1 :] = np.eye(d - m)
        return basis

    def _hessian(self, theta, basis, x, lam, rho):
        """AL Hessian in the reduced coordinates, (n, r, r), by central
        differences of `grads` along each column of basis, the 2 r rows of
        every start in one call.  The step is _HESSIAN_STEP, or half the
        distance from x to 0 or 1 where that is shorter, so that no
        perturbed value leaves (0,1) and no mass turns negative."""
        n, d, r = basis.shape
        h = np.minimum(_HESSIAN_STEP, 0.5 * np.minimum(x, 1.0 - x))
        move = np.swapaxes(basis, 1, 2) * h[:, :, None]
        rows = np.concatenate([theta[:, None] + move, theta[:, None] - move], axis=1)
        _, _, grad, _ = self.grads(rows.reshape(-1, d), np.repeat(lam, 2 * r, axis=0),
                                   np.repeat(rho, 2 * r))
        grad = grad.reshape(n, 2, r, d)
        hess = (grad[:, 0] - grad[:, 1]) / (2.0 * h[:, :, None]) @ basis
        return 0.5 * (hess + np.swapaxes(hess, 1, 2))

    def direction(self, theta, grad, lam, rho):
        """The projected-Newton direction in theta.  Held coordinates do not
        move: those on their floor or ceiling whose gradient points out, and
        then those there whose Newton step points out, until none does."""
        basis = self._basis(theta)
        x = _coords(theta, basis)
        gr = _vm(grad, basis)
        low, high = x <= self.near_lo, x >= self.near_hi
        held = (low & (gr < 0.0)) | (high & (gr > 0.0))
        hess = self._hessian(theta, basis, x, lam, rho)
        step = np.empty_like(gr)
        rows = np.arange(len(gr))  # rows whose step is still to be found
        while rows.size:
            keep = held[rows]
            w, v = np.linalg.eigh(_held(hess[rows], keep))
            s = _mv(v, _vm(np.where(keep, 0.0, gr[rows]), v) / np.maximum(np.abs(w), _EIG_FLOOR))
            step[rows] = np.where(keep, 0.0, s)
            out = (low[rows] & (s < 0.0)) | (high[rows] & (s > 0.0))
            out &= ~keep
            held[rows] |= out
            rows = rows[out.any(axis=1)]
        return _mv(basis, step)

    def finish(self, theta, g, obj):
        """Each row as it is, but for the feasible rows that `_kkt` moves to
        a strict local maximum with every gap at most _KKT_GAP."""
        theta, g, obj = theta.copy(), g.copy(), obj.copy()
        feas = np.flatnonzero(np.abs(g).max(axis=1, initial=0.0) < self.opts.feasibility_tol)
        if feas.size:
            th, ok = self._kkt(theta[feas])
            obj_k, g_k = self.measure(*self.point(th))
            ok &= np.abs(g_k).max(axis=1, initial=0.0) <= _KKT_GAP
            rows = feas[ok]
            theta[rows], g[rows], obj[rows] = th[ok], g_k[ok], obj_k[ok]
        return zip(zip(*self.point(theta)), obj, g)

    def _kkt(self, theta):
        """_KKT_STEPS Newton steps on the KKT equations grad S = A^T lam,
        t = alpha of the problem with the coordinates on their floor or
        ceiling held (Nocedal & Wright 2006, ch. 18).  Each step solves
        K (dx, -dlam) = -(grad L, gaps), K = [[H, A^T], [A, 0]], in the reduced
        coordinates, with H the Hessian of L = S - lam . t (`_hessian` at
        rho = 0) and A the constraint Jacobian; lam starts from least squares.
        K is inverted on its eigenvalues above _EIG_FLOOR in magnitude, so
        that constraints that A repeats (at m = 1, or at a constant graphon)
        take the least-squares step.

        Returns (theta, accepted).  A row is accepted when it stays inside
        the box and, at each of its iterates, the last included, K has no
        more than len(evals) eigenvalues above -_EIG_FLOOR.  K has rank(A)
        positive and len(evals) - rank(A) zero eigenvalues besides those of
        the reduced Hessian on the constraints' tangent space (Sylvester's
        law of inertia), so that Hessian is then negative definite, and the
        point a strict local maximum, not a saddle.  A rejected row stops
        moving."""
        n, k = len(theta), len(self.evals)
        basis = self._basis(theta)
        x = _coords(theta, basis)
        free = (x > self.near_lo) & (x < self.near_hi)
        r = free.shape[1]
        lo = np.repeat([_MASS_FLOOR, _VALUE_FLOOR], [self.m - 1, r - self.m + 1])
        ok = np.ones(n, dtype=bool)
        lam = None
        for it in range(_KKT_STEPS + 1):
            c, p = self.point(theta)
            vals, grads = [], []
            for ev in (self.objective, *self.evals):
                val, dv, dc = ev.value_and_grads(c, p)
                vals.append(val)
                grads.append(_vm(_theta_grads(c, dv, dc), basis) * free)
            jac_t = np.stack(grads[1:], axis=2)  # A^T, (n, r, k)
            if lam is None:
                lam = np.linalg.solve(np.swapaxes(jac_t, 1, 2) @ jac_t + 1e-14 * np.eye(k),
                                      _vm(grads[0], jac_t)[..., None])[..., 0]
            kkt = np.zeros((n, r + k, r + k))
            kkt[:, :r, :r] = _held(self._hessian(theta, basis, x, lam, np.zeros(n)), ~free)
            kkt[:, :r, r:] = jac_t
            kkt[:, r:, :r] = np.swapaxes(jac_t, 1, 2)
            w, v = np.linalg.eigh(kkt)
            ok &= (w >= -_EIG_FLOOR).sum(axis=1) == k
            if it == _KKT_STEPS:
                break
            rhs = np.concatenate([_mv(jac_t, lam) - grads[0],
                                  self.targets - np.stack(vals[1:], axis=1)], axis=1)
            zero = np.abs(w) <= _EIG_FLOOR
            sol = _mv(v, np.where(zero, 0.0, _vm(rhs, v) / np.where(zero, 1.0, w)))
            sol[~ok] = 0.0
            theta = theta + _mv(basis, sol[:, :r])
            lam = lam - sol[:, r:]
            x = _coords(theta, basis)
            ok &= ((x >= lo) & (x <= 1.0 - lo)).all(axis=1)
        return theta, ok


def _coords(theta, basis):
    """The reduced coordinates' values: for each column of basis, the entry
    of theta that it raises."""
    return np.take_along_axis(theta, basis.argmax(axis=1), axis=1)


def _held(hess, held):
    """hess with the rows and columns of held coordinates those of -I."""
    free = ~held
    out = hess * (free[:, :, None] & free[:, None, :])
    i = np.arange(hess.shape[1])
    out[:, i, i] = np.where(held, -1.0, out[:, i, i])
    return out


def _theta_grads(c, dv, dc):
    """Gradients (dV, dc) of a batch as gradients in theta: masses through
    mass_chain_rule, then upper-triangle values."""
    (iu0, iu1), _ = _triu(c.shape[-1])
    return np.concatenate([mass_chain_rule(c, dc), dv[..., iu0, iu1]], axis=-1)


def _ascend(geo, theta, lam, rho, max_inner, feasibility_tol):
    """Maximize the AL objective from each row of theta by at most max_inner
    steps; returns (theta, g, obj).

    Each row steps along geo.direction, with its own Armijo backtracking
    (`_backtrack`) and its own stationarity, stall and failed-step stops, and
    leaves the batch when it stops.  A row is stationary when
    geo.stationarity is below its tolerance (`_gtol`), which is loose while
    the row's worst gap is at or above feasibility_tol and geo.gtol once it
    is below."""
    n = len(theta)
    out = (np.empty_like(theta), np.empty(lam.shape), np.empty(n))
    rows = np.arange(n)
    f, g, grad, obj = geo.grads(theta, lam, rho)
    stall = np.zeros(n, dtype=int)
    stop = geo.stationarity(theta, grad) < _gtol(geo, g, rho, feasibility_tol)
    for it in range(max_inner + 1):
        stop |= it == max_inner
        if stop.any():
            for dst, src in zip(out, (theta, g, obj)):
                dst[rows[stop]] = src[stop]
            keep = ~stop
            rows, lam, rho, theta, grad, f, g, obj, stall = (
                a[keep] for a in (rows, lam, rho, theta, grad, f, g, obj, stall)
            )
            if not rows.size:
                break
        direction = geo.direction(theta, grad, lam, rho)
        ok, theta, f_n = _backtrack(geo, theta, direction, grad, f, lam, rho)
        delta_f = f_n - f
        f, g, grad, obj = geo.grads(theta, lam, rho)
        flat = np.abs(delta_f) < 1e-15 * np.maximum(1.0, np.abs(f))
        stall = np.where(flat, stall + 1, 0)
        stop = (~ok | (stall >= 3)
                | (geo.stationarity(theta, grad) < _gtol(geo, g, rho, feasibility_tol)))
    return out


def _gtol(geo, g, rho, feasibility_tol):
    """Each row's stationarity tolerance: geo.gtol, but max(geo.gtol,
    _INEXACT_GTOL / rho) for a row whose worst gap g is at or above
    feasibility_tol.  Such a row's AL round is solved only as far as its
    penalty warrants (Conn, Gould & Toint 1991; Birgin & Martinez 2014,
    Alg. 4.1), and a row that is feasible has reached geo.gtol, so no start
    is taken as feasible at a loose point.  A row with no gaps (the insertion
    ascent's) keeps geo.gtol."""
    tol = np.full(len(g), geo.gtol)
    loose = np.abs(g).max(axis=1, initial=0.0) >= feasibility_tol
    tol[loose] = np.maximum(geo.gtol, _INEXACT_GTOL / rho[loose])
    return tol


def _backtrack(geo, theta, direction, grad, f, lam, rho):
    """Armijo backtracking from each row along its direction: a trial point x
    passes when it raises the AL by at least 1e-4 grad . (x - theta), the
    first-order gain of the projected step, floored at 0.

    Trial j steps by 2^-j for j = 0..46, the steps down to the last one of at
    least 1e-14; the first trial passing the Armijo test is taken.  Trials
    are independent, so each round tries a block of them per searching row as
    extra batch rows.  Returns (accepted, theta, f) per row (the current
    point where no trial passed)."""
    n = len(theta)
    rows = np.arange(n)  # rows still searching
    first = 0
    for size in (1, 8, 16, 22):  # trials per searching row and round, 47 in all
        steps = np.tile(0.5 ** np.arange(first, first + size), len(rows))
        src = np.repeat(rows, size)
        th = geo.project(theta[src] + steps[:, None] * direction[src])
        obj, gt = geo.measure(*geo.point(th))
        ft = _al(obj, gt, lam[src], rho[src])
        gain = np.maximum(_dot(grad[src], th - theta[src]), 0.0)
        hit = (ft + 1e-18 >= f[src] + 1e-4 * gain).reshape(-1, size)
        found = hit.any(axis=1)
        if first == 0:
            if found.all():
                return found, th, ft
            ok = np.zeros(n, dtype=bool)
            theta_n, f_n = theta.copy(), f.copy()
        take = np.flatnonzero(found) * size + hit.argmax(axis=1)[found]
        done = rows[found]
        ok[done] = True
        theta_n[done], f_n[done] = th[take], ft[take]
        rows = rows[~found]
        first += size
        if not rows.size:
            break
    return ok, theta_n, f_n


def _stack(points):
    """Points, each a tuple of arrays, as one tuple of batch arrays."""
    return tuple(np.array(a, dtype=float) for a in zip(*points))


def _record(geo, point, objective, gaps, opts) -> dict:
    res = np.abs(gaps)
    feasible = bool(res.max(initial=0.0) < opts.feasibility_tol)
    return {**dict(zip(geo.keys, point)), "objective": float(objective),
            "residuals": res, "feasible": feasible}


def _rank(feasible, objective, residuals):
    """Sort key of a solution, the better one larger: feasible before
    infeasible, then the larger objective; among infeasible solutions, the
    smaller worst residual."""
    return (True, objective) if feasible else (False, -float(np.max(residuals, initial=0.0)))


def _multistart(geo, starts, raw, opts):
    """Solve every start as one batch and pick the best solution.

    starts and raw are lists of points of the geometry geo.  Feasible raw
    points join the pool as they are.  Each start keeps its own AL
    multipliers and penalty and leaves the batch once feasible or hopeless;
    geo.finish then turns the rows into solutions.  Each round's ascent
    stops an infeasible row at stationarity max(gtol, _INEXACT_GTOL / rho)
    and a feasible one at gtol (`_gtol`), so a start leaves as feasible
    only from a point stationary to gtol, or where its ascent stalled or
    its line search failed.  Returns (best, pool): pool holds the feasible
    raw records, then one record per start; best is the first record of
    largest `_rank`.

    A start is hopeless from round 5 on, when its worst gap is still above
    1e4 feasibility_tol and has not fallen by 30% over the last three rounds.
    The rule could fire from round 3, the first with three earlier rounds;
    from round 5 the round it compares with is round 2 or later, so rounds 0
    and 1, where the penalty is still _PENALTY_INIT (times _PENALTY_GROWTH)
    and the multipliers have moved at most once, never judge a start."""
    pool = []
    if raw:
        pts = _stack(raw)
        recs = zip(zip(*pts), *geo.measure(*pts))
        pool = [r for r in (_record(geo, *q, opts) for q in recs) if r["feasible"]]
    theta = geo.start(*_stack(starts))
    obj, g = geo.measure(*geo.point(theta))
    lam = np.zeros_like(g)
    rho = np.full(len(theta), _PENALTY_INIT)
    running = np.ones(len(theta), dtype=bool)
    feas_hist: list[np.ndarray] = []
    for rnd in range(opts.max_outer):
        if not running.any():
            break
        theta[running], g[running], obj[running] = _ascend(
            geo, theta[running], lam[running], rho[running], opts.max_inner,
            opts.feasibility_tol)
        feas = np.abs(g).max(axis=1, initial=0.0)
        feas_hist.append(feas)
        stop = feas < opts.feasibility_tol
        if rnd >= 5:
            stop |= (feas > 0.7 * feas_hist[-4]) & (feas > 1e4 * opts.feasibility_tol)
        running &= ~stop
        lam[running] += rho[running, None] * g[running]
        rho[running] *= _PENALTY_GROWTH
    pool += [_record(geo, *sol, opts) for sol in geo.finish(theta, g, obj)]
    return max(pool, key=lambda r: _rank(r["feasible"], r["objective"], r["residuals"])), pool


def _random_starts(starts, m, opts, rng) -> None:
    """Fill starts up to opts.n_starts (Dirichlet masses, uniform values)."""
    while len(starts) < opts.n_starts:
        cr = np.clip(rng.dirichlet(np.ones(m)), _MASS_FLOOR, None)
        cr /= cr.sum()
        pr = rng.uniform(0.02, 0.98, (m, m))
        starts.append((cr, (pr + pr.T) / 2.0))


def _start_list(seeds, m, opts, rng):
    """(starts, raw): each seed embedded into m blocks is a raw point, a start
    and, for m > 1, a jittered start; random starts fill the rest."""
    starts: list[tuple[np.ndarray, np.ndarray]] = []
    raw: list[tuple[np.ndarray, np.ndarray]] = []
    for q in seeds:
        emb = _split_to_m(q, m)
        if emb is None:
            continue
        raw.append(emb)
        starts.append(emb)
        if m > 1:
            cj = emb[0] * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, m))
            cj = np.clip(cj, _MASS_FLOOR, None)
            cj /= cj.sum()
            noise = rng.uniform(-0.05, 0.05, (m, m))
            pj = np.clip(emb[1] + (noise + noise.T) / 2.0, 0.0, 1.0)
            starts.append((cj, pj))
    _random_starts(starts, m, opts, rng)
    return starts, raw


def _result_from_solution(c, p, residuals, feasible, m, spread):
    q = canonicalize(StepGraphon(c, p))
    pod = q.m
    sym = bool(
        pod == 2
        and abs(q.masses[0] - 0.5) <= _SYMMETRIC_TOL
        and abs(q.values[0, 0] - q.values[1, 1]) <= _SYMMETRIC_TOL
    )
    return OptimizerResult(
        graphon=q,
        entropy=graphon_entropy(q),
        residuals=tuple(float(r) for r in residuals),
        podality=pod,
        symmetric_bipodal=sym,
        constant=pod == 1,
        multistart_spread=spread,
        feasible=feasible,
        m=m,
    )


def _basin_key(c, p):
    q = canonicalize(StepGraphon(c, p))
    return (
        q.m,
        tuple(np.round(q.masses / _BASIN_TOL).astype(int).tolist()),
        tuple(np.round(q.values / _BASIN_TOL).astype(int).reshape(-1).tolist()),
    )


def maximize_entropy(
    constraints: ConstraintVector,
    m: int,
    opts: OptimizerOptions | None = None,
    extra_seeds: tuple[StepGraphon, ...] = (),
) -> OptimizerResult:
    """Best local maximum of graphon entropy over m-podal graphons subject to
    t_j(q) = alpha_j, over a deterministic multistart (random starts plus
    closed-form seeds).  Residuals refer to the returned solution before
    block merging; infeasibility (no start meets the tolerance) is reported
    explicitly, never silently.
    """
    if not 1 <= m <= M_CAP:
        raise ValueError(f"podality ansatz m must lie in 1..{M_CAP}")
    opts = opts or OptimizerOptions()
    evals = [DensityEvaluator(p) for p in constraints.patterns]
    targets = constraints.targets
    seeds = [*_closed_form_candidates(constraints), *extra_seeds]
    starts, raw = _start_list(seeds, m, opts, np.random.default_rng(opts.seed))

    geo = _GraphonGeometry(EntropyObjective, evals, targets, m, opts)
    best, pool = _multistart(geo, starts, raw, opts)
    # spread: best against the best feasible solution in another basin
    key = _basin_key(best["c"], best["p"]) if best["feasible"] else None
    others = [r["objective"] for r in pool if r["feasible"] and r is not best
              and _basin_key(r["c"], r["p"]) != key]
    spread = float(best["objective"] - max(others)) if others else None
    return _result_from_solution(
        best["c"], best["p"], best["residuals"], best["feasible"], m, spread
    )


class _InsertionGeometry(_GraphonGeometry):
    """Rows r in [_VALUE_FLOOR, 1 - _VALUE_FLOOR]^k of a block inserted into
    the k-block graphon (c, p), for the AL driver's ascent with no
    constraints: a row's objective is the new block's component of
    mass_chain_rule(c', dL/dc') at mass 0, for L = S - lam . t (L = -lam . t
    without entropy), the first-order gain of moving mass onto that block.
    Its gradient in r vanishes with the block's mass, so it is read as the
    new row's value gradient at mass _INSERTION_MASS over that mass, which is
    exact up to a relative O(_INSERTION_MASS).  Rows take _GraphonGeometry's
    projected-Newton steps, with r as its own reduced coordinates (the
    identity `_basis`)."""

    def __init__(self, c, p, evals, lam, entropy=True):
        self.c, self.p, self.evals, self.lam, self.entropy = c, p, evals, lam, entropy
        self.near_lo, self.near_hi = 2.0 * _VALUE_FLOOR, 1.0 - 2.0 * _VALUE_FLOOR

    def point(self, theta):
        return (theta,)

    def project(self, theta):
        return np.minimum(np.maximum(theta, _VALUE_FLOOR), 1.0 - _VALUE_FLOOR)

    def _basis(self, theta):
        n, k = theta.shape
        return np.broadcast_to(np.eye(k), (n, k, k))

    def _lagrangian(self, r, mass):
        """(c', dL/dV', dL/dc') of the (k+1)-block embeddings with new rows r
        and new-block masses mass, one per row."""
        n, k = r.shape
        c = np.concatenate([np.broadcast_to(self.c, (n, k)), mass[:, None]], axis=1)
        p = np.empty((n, k + 1, k + 1))
        p[:, :k, :k] = self.p
        p[:, k, :k] = p[:, :k, k] = r
        p[:, k, k] = 0.5  # enters L at second order in the new mass only
        dv = dc = 0.0
        if self.entropy:
            _, dv, dc = EntropyObjective.value_and_grads(c, p)
        for lam_j, ev in zip(self.lam, self.evals):
            _, dvj, dcj = ev.value_and_grads(c, p)
            dv, dc = dv - lam_j * dvj, dc - lam_j * dcj
        return c, dv, dc

    def measure(self, r):
        c, _, dc = self._lagrangian(r, np.zeros(len(r)))
        return mass_chain_rule(c, dc)[:, -1], np.empty((len(r), 0))

    def grads(self, theta, lam, rho):
        n, k = theta.shape
        mass = np.repeat([0.0, _INSERTION_MASS], n)
        c, dv, dc = self._lagrangian(np.concatenate([theta, theta]), mass)
        gain = mass_chain_rule(c[:n], dc[:n])[:, -1]
        return gain, np.empty((n, 0)), dv[n:, k, :k] / _INSERTION_MASS, gain


def _theta_grad(ev, c, p) -> np.ndarray:
    """Gradient of ev at (c, p) in the coordinates theta of _GraphonGeometry."""
    return _theta_grads(c, *ev.value_and_grads(c, p)[1:])


def _multipliers(q: StepGraphon, evals) -> tuple[np.ndarray, float]:
    """(lam, KKT residual) at q: lam solves grad S = J^T lam in the
    least-squares sense, in the coordinates theta of _GraphonGeometry, from
    the normal equations with a 1e-14 ridge, as in _GraphonGeometry._kkt
    (np.linalg.lstsq pages in another 1 MB of LAPACK); the residual is
    |grad S - J^T lam|_inf."""
    c, p = q.masses, q.values
    grad = _theta_grad(EntropyObjective, c, p)
    jac = np.array([_theta_grad(ev, c, p) for ev in evals])
    lam = np.linalg.solve(jac @ jac.T + 1e-14 * np.eye(len(evals)), jac @ grad)
    return lam, float(np.abs(grad - jac.T @ lam).max())


def _residual_stationary(q: StepGraphon, evals, gaps, tol: float) -> bool:
    """Whether no move of q's own coordinates lowers |g|^2 / 2, g = gaps, to
    first order: the gradient in theta, projected on the box (a mass on its
    floor or a value on its floor or ceiling drops the component that leaves
    it), is at most tol.  A block whose diagonal value is inside (0,1) also
    refuses: splitting it into two halves whose values move +-x apart leaves
    every density unchanged to second order in x, but moves a triangle
    density by x^3 c^3 with either sign.  Below the ER curve the constant
    graphon is such a point at every target, feasible ones included."""
    c, p, m = q.masses, q.values, q.m
    (iu0, iu1), _ = _triu(m)
    u = p[iu0, iu1]
    step = -sum(g * _theta_grad(ev, c, p) for g, ev in zip(gaps, evals))
    low = np.concatenate([c <= 2.0 * _MASS_FLOOR, u <= 2.0 * _VALUE_FLOOR])
    high = np.concatenate([np.zeros(m, dtype=bool), u >= 1.0 - 2.0 * _VALUE_FLOOR])
    step[(low & (step < 0.0)) | (high & (step > 0.0))] = 0.0
    diag = np.diag(p)
    split = (diag > 2.0 * _VALUE_FLOOR) & (diag < 1.0 - 2.0 * _VALUE_FLOOR)
    return bool(np.abs(step).max() <= tol and not split.any())


def _insertion_certificate(q: StepGraphon, evals, gaps=None) -> tuple[float | None, bool]:
    """(largest insertion gain, whether q is certified).

    At a feasible q (gaps None) the gain is that of L = S - lam . t, with the
    multipliers of _multipliers, and q is certified when its KKT residual is
    at most _KKT_TOL and the gain at most _INSERTION_TOL.  At an infeasible q
    with gaps g = t(q) - alpha the objective is -|g|^2 / 2, whose gradient is
    -g . grad t: the gain is the same with no entropy and lam = g, and q is
    certified when _residual_stationary holds and the gain is at most
    _RESIDUAL_TIE_RTOL |g|^2, so that no new block of mass up to 1 lowers the
    residual by as much as `_no_worse` would count.  Where _residual_stationary
    refuses, the ascent is skipped and the gain is None.

    The gain of a new block of mass 0 and row r is maximized over r in [0,1]^k
    by a batched projected-Newton ascent from q's own rows, whose gains are
    the mass components of the stationarity residual, and
    _INSERTION_RANDOM_ROWS seeded random rows.  A local, first-order test (the
    vertex form of the Euler-Lagrange equations): it says that no block
    insertion helps to first order, not that no larger m does better."""
    if gaps is None:
        lam, kkt = _multipliers(q, evals)
        gain = _insertion_gain(q, evals, lam)
        return gain, kkt <= _KKT_TOL and gain <= _INSERTION_TOL
    tol = _RESIDUAL_TIE_RTOL * float(_dot(gaps, gaps))
    if not _residual_stationary(q, evals, gaps, tol):
        return None, False
    gain = _insertion_gain(q, evals, gaps, entropy=False)
    return gain, gain <= tol


def _insertion_gain(q: StepGraphon, evals, lam, entropy=True) -> float:
    """The largest first-order gain of inserting a block into q, for
    L = S - lam . t (L = -lam . t without entropy); see
    _insertion_certificate."""
    geo = _InsertionGeometry(q.masses, q.values, evals, lam, entropy)
    rows = np.concatenate(
        [q.values, np.random.default_rng(0).uniform(0.0, 1.0, (_INSERTION_RANDOM_ROWS, q.m))])
    n = len(rows)
    _, _, gains = _ascend(geo, geo.project(rows), np.zeros((n, 0)), np.zeros(n),
                          _INSERTION_STEPS, math.inf)
    return float(gains.max())


def _no_worse(a: OptimizerResult, b: OptimizerResult, opts) -> bool:
    """Whether a is no worse than b by `_rank`, up to what says nothing about
    m: entropies within _ESCALATION_TOL, worst residuals within a relative
    _RESIDUAL_TIE_RTOL plus feasibility_tol.  On an infeasible target the
    starts stop as hopeless, not converged (at (0.3, 0.2) and m = 2, all 8
    starts stop at round 5, the first that judges them), hence the tie."""
    if a.feasible != b.feasible:
        return a.feasible
    if a.feasible:
        return a.entropy >= b.entropy - _ESCALATION_TOL
    return max(a.residuals) <= max(b.residuals) * (1.0 + _RESIDUAL_TIE_RTOL) + opts.feasibility_tol


def constrained_entropy(
    constraints: ConstraintVector,
    opts: OptimizerOptions | None = None,
    extra_seeds: tuple[StepGraphon, ...] = (),
) -> OptimizerResult:
    """m-escalation wrapper: runs maximize_entropy for m = 1, 2, ... up to
    opts.m_max and reports the smallest m that is `_no_worse` than the best
    by `_rank` (minimal podality at the optimum; with no feasible m, the
    smallest m whose worst residual ties the smallest one).

    Each m that beats the best so far by `_rank` gets the block-insertion
    certificate (_insertion_certificate), on its residual if it is
    infeasible, and a feasible one records its gain as insertion_gain.  The
    escalation stops at an m that passes, or else after two consecutive
    sizes that the best so far is `_no_worse` than: escalation_stop reads
    "certified", "no_gain" (the best feasible), "ties" (the best infeasible)
    or "m_max"."""
    opts = opts or OptimizerOptions()
    evals = [DensityEvaluator(p) for p in constraints.patterns]
    results: list[OptimizerResult] = []
    best: OptimizerResult | None = None
    stale = 0
    stop = "m_max"
    for m in range(1, opts.m_max + 1):
        seeds = (best.graphon,) if best is not None and best.feasible else ()
        res = maximize_entropy(constraints, m, opts, extra_seeds=seeds + tuple(extra_seeds))
        stale = stale + 1 if best is not None and _no_worse(best, res, opts) else 0
        certified = False
        if best is None or (_rank(res.feasible, res.entropy, res.residuals)
                            > _rank(best.feasible, best.entropy, best.residuals)):
            q = res.graphon
            gaps = None if res.feasible else (
                [ev.value(q.masses, q.values) for ev in evals] - constraints.targets)
            insertion, certified = _insertion_certificate(q, evals, gaps)
            best = res = replace(res, insertion_gain=insertion) if res.feasible else res
        results.append(res)
        if certified or stale >= 2:
            stop = "certified" if certified else "no_gain" if best.feasible else "ties"
            break
    pick = next(r for r in results if _no_worse(r, best, opts))
    return replace(pick, escalation_stop=stop)


def bounded_signed_max(
    objective: SubgraphPattern,
    zero_constraint: SubgraphPattern,
    m: int,
    opts: OptimizerOptions | None = None,
) -> SignedMaxResult:
    """Maximize one signed density over m-podal graphons subject to another
    signed density being 0 (same engine as maximize_entropy with the
    objective swapped).

    The half-blip constraint t2 = 0 is degenerate: every summand of the
    signed square is nonnegative, so t2 >= sum_ab c_a^2 c_b^2 (p_ab (1 -
    p_ab))^2 >= 0, and t2 = 0 is its minimum, reached only with values in
    {0, 1}.  The penalty rho t2^2 / 2 is quartic near that set, so an AL
    row's gap falls only as rho^(-2/3) and no start reaches feasibility_tol
    in max_outer rounds; the answer is a staircase raw seed.  The inexact
    rounds (_INEXACT_GTOL) keep those starts from being polished."""
    if not 1 <= m <= 12:
        raise ValueError("bounded_signed_max supports m in 1..12")
    opts = opts or OptimizerOptions()
    evals = [DensityEvaluator(zero_constraint)]
    targets = np.array([0.0])
    halves = [staircase_graphon(m // 2)] if m >= 2 else []
    seeds = [staircase_graphon(m), *halves, StepGraphon.constant(0.5)]
    raw = [_split_to_m(q, m) for q in seeds]  # no seed has more than m blocks
    starts = [(c, np.clip(p, 1e-7, 1.0 - 1e-7)) for c, p in raw]
    _random_starts(starts, m, opts, np.random.default_rng(opts.seed))
    geo = _GraphonGeometry(DensityEvaluator(objective), evals, targets, m, opts)
    best, _ = _multistart(geo, starts, raw, opts)
    q = canonicalize(StepGraphon(best["c"], best["p"]))
    return SignedMaxResult(
        best["objective"], q, float(best["residuals"].max()), best["feasible"], m
    )
