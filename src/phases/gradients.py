"""Analytic gradients of pattern densities and graphon entropy.

Everything here works on raw (masses, values) arrays since it sits inside the
optimizer's hot loop.

The edge, triangle, k-star, signed 2-star and signed square densities have
closed forms.  Any other pattern, the plain 4-cycle included, is compiled
once into a contraction plan: a greedy elimination order on the pattern
graph turns the sum over block assignments into a short list of batched
binary steps (broadcast products and matmuls).  The forward run keeps every
intermediate, and one reverse sweep over the same steps gives the gradient
of every operand for a small constant multiple of the value's cost.  The
closed forms stay: the edge/triangle solves of constrained_entropy and the
scans run on them alone, so keeping them keeps those outputs bit for bit,
and the tests check the plans against them.  The signed square, the
constraint of bounded_signed_max, is three matmuls where its plan takes
some 25 steps.

Gradients use the symmetric parameterization: the returned value-gradient
dV satisfies dV[a,b] = d(t)/d(theta_ab) where theta_ab = theta_ba is the
shared off-diagonal parameter, so finite differences must perturb p_ab and
p_ba together.  Mass gradients dc are raw d/dc and only meaningful after
mass_chain_rule projects them onto the simplex tangent (off the simplex they
carry an arbitrary additive constant that the chain rule cancels).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .graphon import SubgraphPattern, _check_vertex_cap, _pattern_kind

_LOG_CLIP = 1e-12


_identity = lru_cache(maxsize=None)(np.eye)


def _symmetrize_grad(g_full: np.ndarray) -> np.ndarray:
    # g + g^T with the diagonal counted once (2g - g = g exactly)
    return g_full + np.swapaxes(g_full, -1, -2) - g_full * _identity(g_full.shape[-1])


# Batched products: one matmul over the batch runs per row the BLAS kernel of
# the same product of one row's 1-D and 2-D arrays, so a row's result is bit
# for bit the unbatched one, whatever batch it is in.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b per row: (B, n) x (B, n) -> (B,)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _vm(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c p per row: (B, m) x (B, m, m) -> (B, m)."""
    return (c[..., None, :] @ p)[..., 0, :]


def _mv(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """p c per row: (B, m, m) x (B, m) -> (B, m)."""
    return (p @ c[..., :, None])[..., 0]


def _as_batch(c, p):
    """(c, p) with a leading batch axis, and whether it had to be added."""
    return (c[None], p[None], True) if c.ndim == 1 else (c, p, False)


def _perm(scope, order) -> tuple[int, ...] | None:
    """Axis permutation taking an array laid out as (batch, *scope) to
    (batch, *order); None when it is the identity."""
    perm = (0, *(1 + scope.index(w) for w in order))
    return None if perm == tuple(range(len(perm))) else perm


class _Contraction:
    """One binary step z[out] = sum over (sa | sb) - out of x[sa] * y[sb].

    Arrays carry a leading batch axis and then one axis of length m per
    pattern vertex of their scope, in scope order.  A summed vertex lies in
    both scopes.  With nothing summed the step is a broadcast product; else
    it is one batched matmul, with the shared kept vertices t as stack axes:
    x as (t, xs, summed) @ y as (t, summed, ys), where xs and ys are the
    kept vertices of x alone and of y alone.
    """

    def __init__(self, sa, sb, out):
        summed = [w for w in sa if w not in out]
        self.product = not summed
        if self.product:
            self.ix = (slice(None), *(slice(None) if w in sa else None for w in out))
            self.iy = (slice(None), *(slice(None) if w in sb else None for w in out))
            return
        t = [w for w in out if w in sa and w in sb]
        xs = [w for w in out if w not in sb]
        ys = [w for w in out if w not in sa]
        # the operand whose own kept vertices come first in out goes left,
        # so that z needs no transpose where out allows
        self.swap = bool(xs and ys) and out.index(ys[0]) < out.index(xs[0])
        if self.swap:
            sa, sb, xs, ys = sb, sa, ys, xs
        self.px, self.py = _perm(sa, t + xs + summed), _perm(sb, t + summed + ys)
        self.pz = _perm(t + xs + ys, out)
        self.dims = len(t), len(xs), len(summed), len(ys)
        self.shapes: dict[int, tuple] = {}

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.product:
            return x[self.ix] * y[self.iy]
        if self.swap:
            x, y = y, x
        m = x.shape[-1]
        shapes = self.shapes.get(m)
        if shapes is None:
            nt, nx, nk, ny = self.dims
            lead = (-1,) + (m,) * nt
            shapes = self.shapes[m] = (
                lead + (m**nx, m**nk), lead + (m**nk, m**ny), lead + (m,) * (nx + ny))
        if self.px is not None:
            x = x.transpose(self.px)
        if self.py is not None:
            y = y.transpose(self.py)
        z = (x.reshape(shapes[0]) @ y.reshape(shapes[1])).reshape(shapes[2])
        return z if self.pz is None else z.transpose(self.pz)


class _Plan:
    """A pattern density compiled into binary contraction steps.

    Nodes 0..k-1 are the masses c of each vertex, then one node per edge (p
    for a present edge, 1 - p for an absent one), then one per step.
    Vertices are eliminated greedily, smallest current neighbourhood first
    and ties to the lower index.  Eliminating v multiplies c_v into the
    smallest factor that holds v, multiplies in the others but the last,
    and sums v out against the last; a vertex with no factor sums c_v
    alone.  The factors left with empty scopes, one per connected
    component, are multiplied into the density.  Every node feeds exactly
    one step, so one reverse sweep assigns each node its gradient once.
    """

    def __init__(self, pattern: SubgraphPattern):
        k = pattern.k
        scopes = [(v,) for v in range(k)] + [(u - 1, v - 1) for u, v in pattern.all_edges]
        self.k, self.n_present = k, len(pattern.edges)
        self.n_leaves = len(scopes)
        steps: list = []

        def emit(a, b, out):
            steps.append((a, b, _Contraction(scopes[a], scopes[b], out),
                          _Contraction(out, scopes[b], scopes[a]),
                          _Contraction(out, scopes[a], scopes[b])))
            scopes.append(out)
            return len(scopes) - 1

        def nbhd(v):
            return {w for f in live if v in scopes[f] for w in scopes[f]} - {v}

        live = list(range(k, len(scopes)))  # factors not yet consumed
        left = list(range(k))
        while left:
            v = min(left, key=lambda v: (len(nbhd(v)), v))
            left.remove(v)
            holds = sorted((f for f in live if v in scopes[f]), key=lambda f: len(scopes[f]))
            live = [f for f in live if v not in scopes[f]]
            if not holds:
                steps.append((v, None, None, None, None))
                scopes.append(())
                live.append(len(scopes) - 1)
                continue
            acc = v
            for f in holds[:-1]:
                acc = emit(acc, f, tuple(sorted({*scopes[acc], *scopes[f]})))
            out = tuple(sorted({*scopes[acc], *scopes[holds[-1]]} - {v}))
            live.append(emit(acc, holds[-1], out))
        acc = live[0]
        for f in live[1:]:
            acc = emit(acc, f, ())
        self.steps = steps

    def forward(self, c: np.ndarray, p: np.ndarray) -> list[np.ndarray]:
        """Every node's value; the last is the density, shape (B,)."""
        vals = [c] * self.k + [p] * self.n_present
        if self.n_leaves > len(vals):
            vals += [1.0 - p] * (self.n_leaves - len(vals))
        for a, b, step, _, _ in self.steps:
            vals.append(vals[a].sum(axis=-1) if b is None else step(vals[a], vals[b]))
        return vals

    def grads(self, vals: list[np.ndarray], c: np.ndarray, p: np.ndarray):
        """One reverse sweep from the density: (d/dp, d/dc), with each
        absent edge's gradient entering d/dp negated."""
        grads = [None] * len(vals)
        grads[-1] = np.ones_like(vals[-1])
        for out in range(len(vals) - 1, self.n_leaves - 1, -1):
            a, b, _, back_a, back_b = self.steps[out - self.n_leaves]
            g = grads[out]
            if b is None:
                grads[a] = g[:, None]
            else:
                grads[a], grads[b] = back_a(g, vals[b]), back_b(g, vals[a])
        dc = np.zeros_like(c)
        for g in grads[: self.k]:
            dc += g
        g_full = np.zeros_like(p)
        for e, g in enumerate(grads[self.k : self.n_leaves]):
            if e < self.n_present:
                g_full += g
            else:
                g_full -= g
        return g_full, dc


class DensityEvaluator:
    """Value and analytic gradient of one pattern density on step graphons:
    one graphon, c (m,) and p (m, m), or a batch, (B, m) and (B, m, m).

    kind names the closed form that serves the pattern (edge, triangle,
    star, signed2star, signedsquare), or "generic" for its contraction plan
    (a _Plan), which is built on first use and serves any kind set to
    "generic" too; every other pattern, the 4-cycle included, runs its
    plan.  A row's result, closed form or plan, is bit for bit the result
    for that row alone.  Patterns above DEFAULT_VERTEX_CAP vertices are
    rejected, as by subgraph_density.
    """

    def __init__(self, pattern: SubgraphPattern):
        _check_vertex_cap(pattern)
        self.pattern = pattern
        self.kind, self.arity = _pattern_kind(pattern)

    @cached_property
    def _plan(self) -> _Plan:
        return _Plan(self.pattern)

    # -- public API ---------------------------------------------------------

    def value(self, c: np.ndarray, p: np.ndarray):
        """The density: a float for one graphon, a (B,) array for a batch."""
        c, p, single = _as_batch(c, p)
        kind = self.kind
        if kind == "edge":
            val = _dot(_vm(c, p), c)
        elif kind == "triangle":
            pdp = p @ (c[:, :, None] * p)
            val = _dot(_vm(c, pdp * p), c)
        elif kind == "star":
            val = _dot(c, _mv(p, c) ** self.arity)
        elif kind == "signed2star":
            r = _mv(p, c)
            val = _dot(c, r * (1.0 - r))
        elif kind == "signedsquare":
            y = p @ (c[:, :, None] * (1.0 - p))
            val = _dot(_vm(c, y * np.swapaxes(y, -1, -2)), c)
        else:
            val = self._plan.forward(c, p)[-1]
        return float(val[0]) if single else val

    def value_and_grads(self, c: np.ndarray, p: np.ndarray):
        """Returns (value, dV symmetric-parameter gradient, dc mass gradient),
        with the batch axis of (c, p) if it has one."""
        c, p, single = _as_batch(c, p)
        kind = self.kind
        if kind == "edge":
            val = _dot(_vm(c, p), c)
            g_full = c[:, :, None] * c[:, None, :]
            dc = 2.0 * _mv(p, c)
        elif kind == "triangle":
            pdp = p @ (c[:, :, None] * p)
            val = _dot(_vm(c, pdp * p), c)
            g_full = 3.0 * (c[:, :, None] * c[:, None, :]) * pdp
            dc = 3.0 * _mv(pdp * p, c)
        elif kind == "star":
            x = self.arity
            r = _mv(p, c)
            rx1 = r ** (x - 1) if x > 1 else np.ones_like(r)
            val = _dot(c, r * rx1)
            g_full = x * ((c * rx1)[:, :, None] * c[:, None, :])
            dc = r * rx1 + x * _mv(p, c * rx1)
        elif kind == "signed2star":
            r = _mv(p, c)
            val = _dot(c, r * (1.0 - r))
            g_full = (c * (1.0 - 2.0 * r))[:, :, None] * c[:, None, :]
            dc = r * (1.0 - r) + _mv(p, c * (1.0 - 2.0 * r))
        elif kind == "signedsquare":
            # t = tr(X^2) with X = D P D Q, D = diag(c), Q = 1 - P; Y = P D Q
            # and W = Y o Y^T give t = c W c and dc = 4 W c, with no 1/c
            dq = c[:, :, None] * (1.0 - p)
            y = p @ dq
            yt = np.swapaxes(y, -1, -2)
            w = y * yt
            val = _dot(_vm(c, w), c)
            # 2 DQDPDQD - 2 DPDQDPD, with QDPDQ = Y^T D Q and PDQDP = Y D P
            g_full = 2.0 * (c[:, :, None] * c[:, None, :]) * (yt @ dq - y @ (c[:, :, None] * p))
            dc = 4.0 * _mv(w, c)
        else:
            vals = self._plan.forward(c, p)
            val = vals[-1]
            g_full, dc = self._plan.grads(vals, c, p)
        dv = _symmetrize_grad(g_full)
        return (float(val[0]), dv[0], dc[0]) if single else (val, dv, dc)


class EntropyObjective:
    """Graphon Shannon entropy with analytic gradients, duck-typed like
    DensityEvaluator (batch axis included) for the optimizer."""

    @staticmethod
    def value(c: np.ndarray, p: np.ndarray):
        c, p, single = _as_batch(c, p)
        q = np.minimum(np.maximum(p, 0.0), 1.0)
        inside = (q > 0) & (q < 1)
        qi = np.where(inside, q, 0.5)
        h = np.where(inside, qi * np.log(qi) + (1.0 - qi) * np.log1p(-qi), 0.0)
        val = _dot(_vm(-0.5 * c, h), c)
        return float(val[0]) if single else val

    @staticmethod
    def value_and_grads(c: np.ndarray, p: np.ndarray):
        c, p, single = _as_batch(c, p)
        q = np.minimum(np.maximum(p, _LOG_CLIP), 1.0 - _LOG_CLIP)
        log_q, log_1mq = np.log(q), np.log1p(-q)
        h = q * log_q + (1.0 - q) * log_1mq
        val = _dot(_vm(-0.5 * c, h), c)
        g_full = -0.5 * (c[:, :, None] * c[:, None, :]) * (log_q - log_1mq)
        dv = _symmetrize_grad(g_full)
        dc = -_mv(h, c)
        return (float(val[0]), dv[0], dc[0]) if single else (val, dv, dc)


def mass_chain_rule(c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. normalized positive mass variables w (at sum(w)=1):
    dF/dw_i = dF/dc_i - sum_k c_k dF/dc_k, per row of a batch."""
    return dc - _dot(c, dc)[..., None]
