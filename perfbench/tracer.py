"""Spans and counters recorded around calls into `phases`.

The tracer patches public entry points from the outside: a function is
rebound in every `phases.*` namespace that holds it by name (so
`phases.cli.sample_constrained` and `phases.sampler.sample_constrained` both
go through the wrapper), and methods are replaced on their class.  Nothing
under `src/` changes.

Coarse calls become spans (name, start, end, parent, item, attributes, the
span's thread CPU time, and the hot-call seconds by layer spent inside it in
the same thread); hot
calls (density evaluators, canonicalize, subgraph_density, marginal
projection) become per-thread counters of calls and summed time, so tracing
them costs two clock reads and a dict update per call.  Spans stay in memory
until `spans_doc()` is written out at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import sys
import threading
import time

# hot counter name -> layer whose busy time it counts toward
HOT_LAYER = {
    "gradients.value": "gradients",
    "gradients.grad": "gradients",
    # ".subset" counters (the generic-einsum calls) are not extra time
    "graphon.canonicalize": "graphon",
    "graphon.density": "graphon",
    "permuton.projection": "permuton",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.item: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        # counter name -> thread id -> [calls, seconds]; each thread only
        # updates its own entry, so no update is lost between threads
        self._counters: dict[str, dict[int, list]] = {}
        self._main_stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _hot(self) -> dict:
        """This thread's hot-call seconds so far, by layer."""
        tid = threading.get_ident()
        out: dict = {}
        for name, table in self._counters.items():
            layer, acc = HOT_LAYER.get(name), table.get(tid)
            if layer is not None and acc is not None:
                out[layer] = out.get(layer, 0.0) + acc[1]
        return out

    def open(self, name: str, **attrs) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:
            # pool threads inherit the span the main thread is waiting in
            parent = self._main_stack[-1]["id"] if self._main_stack else None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "item": self.item,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
            "cpu_s": time.thread_time(),
            "hot": self._hot(),
            "attrs": attrs,
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu_s"] = time.thread_time() - span["cpu_s"]
        before, now = span["hot"], self._hot()
        span["hot"] = {k: v - before.get(k, 0.0) for k, v in now.items() if v != before.get(k, 0.0)}
        self._stack().pop()
        self.spans.append(span)

    def totals(self) -> dict:
        """Counters summed over threads: name -> [calls, seconds]."""
        return {
            name: [sum(a[0] for a in list(table.values())), sum(a[1] for a in list(table.values()))]
            for name, table in self._counters.items()
        }

    # -- wrappers ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def span_wrapper(self, name, fn, attrs=None, on_result=None):
        """Wrap fn so each call is one span; attrs(args, kwargs) and
        on_result(result, args, kwargs) add span attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs(args, kwargs) if attrs else {})) as span:
                result = fn(*args, **kwargs)
            if on_result is not None:
                span["attrs"].update(on_result(result, args, kwargs))
            return result

        return wrapper

    def counter_wrapper(self, name, fn, subset=None):
        """Wrap fn so each call adds to counter `name`; calls for which
        subset(args) is true also add to counter `name + ".subset"`."""
        table = self._counters.setdefault(name, {})
        sub = self._counters.setdefault(f"{name}.subset", {}) if subset else None
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tid = ident()
                acc = table.get(tid) or table.setdefault(tid, [0, 0.0])
                acc[0] += 1
                acc[1] += dt
                if sub is not None and subset(args):
                    acc = sub.get(tid) or sub.setdefault(tid, [0, 0.0])
                    acc[0] += 1
                    acc[1] += dt

        return wrapper

    # -- installation -------------------------------------------------------------

    def rebind(self, module, attr: str, make_wrapper) -> None:
        """Replace module.attr in every loaded phases namespace holding the
        same object."""
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if (name == "phases" or name.startswith("phases.")) and getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_attr(self, owner, attr: str, make_wrapper, static: bool = False) -> None:
        """Replace one class attribute or module global (this namespace only)."""
        original = owner.__dict__[attr]
        func = original.__func__ if static else original
        wrapped = make_wrapper(func)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans_doc(self) -> list[dict]:
        return [dict(s) for s in sorted(self.spans, key=lambda s: s["id"])]


def install(tracer: Tracer) -> None:
    """Wrap the entry points whose spans and counters the per-layer metrics
    read."""
    import phases.cli  # noqa: F401  (loaded so its imported names are rebound)
    from phases import gradients, graphon, metrics, optimizer, permuton, sampler, scan, serialize

    t = tracer
    ev = gradients.DensityEvaluator
    generic = lambda args: args[0].kind == "generic"  # noqa: E731
    t.patch_attr(ev, "value", lambda f: t.counter_wrapper("gradients.value", f, generic))
    t.patch_attr(ev, "value_and_grads", lambda f: t.counter_wrapper("gradients.grad", f, generic))
    ent = gradients.EntropyObjective
    t.patch_attr(ent, "value", lambda f: t.counter_wrapper("gradients.value", f), static=True)
    t.patch_attr(ent, "value_and_grads", lambda f: t.counter_wrapper("gradients.grad", f), static=True)
    t.rebind(graphon, "canonicalize", lambda f: t.counter_wrapper("graphon.canonicalize", f))
    t.rebind(graphon, "subgraph_density", lambda f: t.counter_wrapper("graphon.density", f))
    t.rebind(permuton, "project_uniform_marginals",
             lambda f: t.counter_wrapper("permuton.projection", f))

    def m_of(args, kwargs):
        return {"m": int(args[1] if len(args) > 1 else kwargs["m"])}

    def solved(res, args, kwargs):
        return {"m": res.m, "feasible": res.feasible}

    def cell(args, kwargs):
        return {"cell": True, "seeds": len(kwargs.get("extra_seeds", ()))}

    t.rebind(optimizer, "maximize_entropy",
             lambda f: t.span_wrapper("optimizer.maximize_entropy", f, m_of))
    # scan cells are the constrained_entropy calls made from phases.scan; that
    # namespace gets its own wrapper, which also records the warm seeds
    t.patch_attr(scan, "constrained_entropy", lambda f: t.span_wrapper(
        "optimizer.constrained_entropy", f, cell, solved))
    t.rebind(optimizer, "constrained_entropy",
             lambda f: t.span_wrapper("optimizer.constrained_entropy", f, None, solved))
    t.rebind(optimizer, "bounded_signed_max",
             lambda f: t.span_wrapper("optimizer.bounded_signed_max", f))
    t.rebind(scan, "phase_scan", lambda f: t.span_wrapper(
        "scan.phase_scan", f, lambda a, k: {"threads": int(k.get("threads", 1))}))

    def chain(args, kwargs):
        cfg = args[0]
        return {"proposals": cfg.burn_in_steps + cfg.interval_steps * cfg.n_samples}

    def chain_done(run, args, kwargs):
        return {"acceptance": run.acceptance_rate, "stalled": run.stalled}

    t.rebind(sampler, "sample_constrained",
             lambda f: t.span_wrapper("sampler.sample_constrained", f, chain, chain_done))
    t.rebind(sampler, "estimate_block_structure",
             lambda f: t.span_wrapper("sampler.estimate_block_structure", f))
    t.rebind(sampler, "enumerate_Z",
             lambda f: t.span_wrapper("sampler.enumerate_Z", f, lambda a, k: {"n": a[0]}))
    t.rebind(permuton, "maximize_permuton_entropy", lambda f: t.span_wrapper(
        "permuton.maximize_permuton_entropy", f, None, lambda r, a, k: {"feasible": r.feasible}))
    t.rebind(permuton, "count_constrained_perms", lambda f: t.span_wrapper(
        "permuton.count_constrained_perms", f, lambda a, k: {"perms": math.factorial(a[0])}))
    t.rebind(metrics, "dbar_distance", lambda f: t.span_wrapper("metrics.dbar_distance", f))
    t.rebind(metrics, "cut_distance_upper",
             lambda f: t.span_wrapper("metrics.cut_distance_upper", f))
    t.patch_attr(scan.PhaseMap, "to_csv", lambda f: t.span_wrapper("scan.to_csv", f))
    t.patch_attr(scan.PhaseMap, "to_svg", lambda f: t.span_wrapper("svg.to_svg", f))
    t.rebind(serialize, "save_finite_graph", lambda f: t.span_wrapper(
        "serialize.save_finite_graph", f, None,
        lambda r, a, k: {"bytes": os.path.getsize(a[1])}))
    t.rebind(serialize, "write_json", lambda f: t.span_wrapper(
        "serialize.write_json", f, None,
        lambda text, a, k: {"bytes": len(text) + 1 if a[1] else 0}))
