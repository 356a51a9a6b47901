"""Analytic gradients of pattern densities and graphon entropy.

Everything here works on raw (masses, values) arrays since it sits inside the
optimizer's hot loop.  Gradients use the symmetric parameterization: the
returned value-gradient dV satisfies dV[a,b] = d(t)/d(theta_ab) where
theta_ab = theta_ba is the shared off-diagonal parameter, so finite
differences must perturb p_ab and p_ba together.  Mass gradients dc are raw
d/dc and only meaningful after mass_chain_rule projects them onto the
simplex tangent (off the simplex they carry an arbitrary additive constant
that the chain rule cancels).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .graphon import SubgraphPattern, _pattern_kind, _LETTERS

_LOG_CLIP = 1e-12
_BATCH = "z"


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


class DensityEvaluator:
    """Value and analytic gradient of one pattern density on step graphons:
    one graphon, c (m,) and p (m, m), or a batch, (B, m) and (B, m, m)."""

    def __init__(self, pattern: SubgraphPattern):
        self.pattern = pattern
        self.kind, self.arity = _pattern_kind(pattern)
        # generic einsum: one operand per vertex (masses) and per edge
        # (values), subscripts led by the batch letter z; the gradient with
        # respect to one operand contracts all the others
        idx = _LETTERS[: pattern.k]
        terms = [_BATCH + v for v in idx] + [
            _BATCH + idx[u - 1] + idx[v - 1] for u, v in pattern.all_edges
        ]
        self._sub = ",".join(terms) + "->" + _BATCH

        def others(pos: int, out: str) -> tuple[str, int]:
            return ",".join(terms[:pos] + terms[pos + 1 :]) + "->" + out, pos

        k = pattern.k
        self._edge_subs = [others(k + e, terms[k + e]) for e in range(len(pattern.all_edges))]
        self._vert_subs = [
            others(w, terms[w] if any(idx[w] in t for t in terms[k:]) else _BATCH)
            for w in range(k)
        ]
        self._paths: dict[tuple, object] = {}

    # -- generic einsum machinery ------------------------------------------

    def _path(self, sub: str, ops) -> object:
        key = (sub, ops[0].shape[-1])
        path = self._paths.get(key)
        if path is None:
            path, _ = np.einsum_path(sub, *ops, optimize="greedy")
            self._paths[key] = path
        return path

    def _operands(self, c, p):
        pat = self.pattern
        ops = [c] * pat.k + [p] * len(pat.edges)
        if pat.absent:
            comp = 1.0 - p
            ops += [comp] * len(pat.absent)
        return ops

    def _generic_value(self, c, p) -> np.ndarray:
        ops = self._operands(c, p)
        return np.einsum(self._sub, *ops, optimize=self._path(self._sub, ops))

    def _generic_grads(self, c, p):
        ops = self._operands(c, p)
        n_present = len(self.pattern.edges)
        g_full = np.zeros_like(p)
        for e, (sub, pos) in enumerate(self._edge_subs):
            rest = ops[:pos] + ops[pos + 1 :]
            part = np.einsum(sub, *rest, optimize=self._path(sub, rest))
            g_full += part if e < n_present else -part
        dc = np.zeros_like(c)
        for sub, pos in self._vert_subs:
            rest = ops[:pos] + ops[pos + 1 :]
            if not rest:
                dc += 1.0
                continue
            part = np.einsum(sub, *rest, optimize=self._path(sub, rest))
            dc += part if part.ndim == 2 else part[:, None]
        return g_full, dc

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
        else:
            val = self._generic_value(c, p)
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
        else:
            val = self._generic_value(c, p)
            g_full, dc = self._generic_grads(c, p)
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
