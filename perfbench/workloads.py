"""The four workloads.

Each workload turns the seed into a fixed list of items (one cycle).  Inputs
whose values change an optimizer's running time are fixed (see
Optimize.PANEL); the seed draws the rest: chain seeds and the enumeration
window (finite-size), the count window and the distance pairs (generic).  A
run repeats the cycle, with the same inputs, until its time is spent, so
counts per cycle repeat exactly for a given seed.  Items call `phases`
through module attributes (`optimizer.constrained_entropy`, `cli.main`),
which is where the tracer's wrappers sit, and check every output with
`gate` after the timed call returns.

Sizes are smaller than the CLI defaults where one call would not fit a run
(see SIZES); every such choice is listed there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
import traceback
from functools import partial

import numpy as np
from phases import cli, metrics, optimizer, permuton, sampler
from phases.graphon import ConstraintVector, FiniteGraph, SubgraphPattern
from phases.optimizer import OptimizerOptions, reference_construction
from phases.permuton import PermutonOptimizerOptions, StarPattern

import gate

# Full sizes, and the tiny sizes the smoke test runs.  Departures from the
# CLI defaults, each because one call would not fit a run: optimize uses 8
# starts (the closed-form seeds and their jittered copies; 40 starts make
# one solve 11-97 s), chains run a 2 n^2 burn-in instead of 50 n^2, the
# signed sweep uses its 3 built-in seeds instead of 40 starts and m = 2, 5, 8
# (m = 4 alone takes 7.7 s, which would leave one cycle per run), and
# perm-optimize uses 2 starts instead of 16.
SIZES = {
    False: {
        "opt_starts": 8, "opt_m_max": 6, "scan_grid": "2x2", "scan_flags": [],
        "sample_n": (150, 200), "samples": 4, "enum_n": 7, "signed_m": (2, 5, 8),
        "signed_starts": 3, "perm_res": 20, "perm_starts": 2, "count_n": 9,
    },
    True: {
        "opt_starts": 1, "opt_m_max": 2, "scan_grid": "1x2",
        "scan_flags": ["--starts", "1", "--m-max", "2"],
        "sample_n": (12, 16), "samples": 2, "enum_n": 5, "signed_m": (1, 2),
        "signed_starts": 1, "perm_res": 4, "perm_starts": 1, "count_n": 5,
    },
}
CHAINS = 2
BURN_IN_SQ, INTERVAL_DIV = 2, 4  # burn-in 2 n^2 proposals, then one sample per n^2/4

T1 = SubgraphPattern.signed_two_star()
T2 = SubgraphPattern.signed_square()
SAMPLE_TARGET = (0.5, 0.1, 0.01)  # ROADMAP item 4's window: (eps, tau, delta)
ENUM_DELTA = 0.05
SCAN_TOL = 1e-8  # `phases scan --tol` default


class Context:
    """What items share within one run: the work directory, the optional
    tracer, named timings, checked operations and ungated observations."""

    def __init__(self, work_dir: str, tracer=None):
        self.work_dir = work_dir
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.notes: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def note(self, name: str, value) -> None:
        self.notes.setdefault(name, []).append(value)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def check(self, op: str, inputs: dict, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failures.append({"op": op, "inputs": inputs, "failures": failures})

    def raised(self, op: str, inputs: dict) -> None:
        self.attempted += 1
        self.failures.append(
            {"op": op, "inputs": inputs, "failures": [traceback.format_exc(limit=4)]}
        )

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _run_cli(ctx: Context, argv: list[str], manifest: str) -> tuple[float, int, str]:
    """cli.main in-process with its stdout captured; returns (seconds, rc,
    stdout).  The thread count the CLI resolved is read back from its
    manifest."""
    buf = io.StringIO()
    with ctx.span("cli.main", sub=argv[0]) as span, contextlib.redirect_stdout(buf):
        dt, rc = _timed(cli.main, argv + ["--manifest", manifest])
    with open(manifest) as fh:
        threads = int(json.load(fh)["options"]["threads"])
    ctx.note("cli_threads", threads)
    if span is not None:
        span["attrs"]["threads"] = threads
    return dt, rc, buf.getvalue()


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workload:
    name = ""
    # item_s is the median of cycle totals (True) or of single items (False)
    per_cycle = False

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.size = SIZES[tiny]
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def items(self) -> list:
        """The cycle: callables item(ctx) -> seconds to count toward item_s."""
        raise NotImplementedError

    def inputs(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Optimize(Workload):
    """Cold constrained_entropy solves of a fixed panel, one target per
    regime, at the CLI's default optimizer seed."""

    name = "optimize"
    per_cycle = True
    # Fixed, not drawn from the seed: a solve's time moves by 20% (CV) under
    # a target change of 0.005 or another optimizer seed, more than a run of
    # a few solves can average out.  (0.3, 0.2) lies 0.036 above
    # tau = eps^1.5 and runs every m up to m_max.  Above the curve a solve
    # takes 9-16 s here (e.g. criterion 6's (0.5, 0.15)); with it a run
    # would hold one panel, whose time then swings with the host's speed.
    PANEL = (
        ("anchor", 0.4, 0.05),
        ("below", 0.5, 0.06),
        ("on_curve", 0.45, 0.45**3),
        ("infeasible", 0.3, 0.2),
    )

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.opts = OptimizerOptions(n_starts=self.size["opt_starts"], m_max=self.size["opt_m_max"])

    def inputs(self):
        return {"targets": self.PANEL, "starts": self.opts.n_starts,
                "m_max": self.opts.m_max, "opt_seed": self.opts.seed}

    def items(self):
        return [partial(self.solve, *t) for t in self.PANEL]

    def solve(self, regime, eps, tau, ctx):
        cons = ConstraintVector.edge_triangle(eps, tau)
        dt, res = _timed(optimizer.constrained_entropy, cons, self.opts)
        ctx.sample("solve_s", dt)
        ctx.check("constrained_entropy", {"regime": regime, "eps": eps, "tau": tau},
                  gate.check_solution(eps, tau, res.graphon, res.entropy, res.feasible,
                                      res.podality, self.opts.feasibility_tol))
        return dt


class Scan(Workload):
    """`phases scan` at its CLI defaults on a fixed 2x2 tile below the ER
    curve (fixed for the reason given at Optimize.PANEL)."""

    name = "scan"
    # every cell has tau <= 0.025 < 0.35^3: below the curve, feasible
    BOX = (0.35, 0.45, 0.005, 0.025)

    def inputs(self):
        return {"box": self.BOX, "grid": self.size["scan_grid"]}

    def items(self):
        return [self.scan]

    def scan(self, ctx):
        d = _fresh_dir(os.path.join(ctx.work_dir, "scan"))
        csv, svg = os.path.join(d, "scan.csv"), os.path.join(d, "scan.svg")
        e0, e1, t0, t1 = self.BOX
        argv = ["scan", "--grid", self.size["scan_grid"], "--eps-min", str(e0), "--eps-max", str(e1),
                "--tau-min", str(t0), "--tau-max", str(t1), "--out", csv, "--svg", svg,
                ] + self.size["scan_flags"]
        maps = []
        inner = cli.phase_scan

        def capture(*args, **kwargs):
            maps.append(inner(*args, **kwargs))
            return maps[-1]

        cli.phase_scan = capture
        try:
            dt, rc, out = _run_cli(ctx, argv, os.path.join(d, "manifest.json"))
        finally:
            cli.phase_scan = inner
        nx, ny = (int(v) for v in self.size["scan_grid"].split("x"))
        cells = nx * ny
        ctx.sample("cells_per_min", 60.0 * cells / dt)
        inputs = self.inputs()
        fails = [] if rc == 0 else [f"phases scan exited {rc}"]
        if rc == 0:
            summary = json.loads(out)
            if summary["cells"] != cells:
                fails.append(f"summary reports {summary['cells']} cells, expected {cells}")
            fails += gate.check_csv_roundtrip(csv, cells)
        ctx.check("phases scan", inputs, fails)
        if maps:
            pm = maps[-1]
            ctx.count("scan.failed_cells", sum(c.failed for col in pm.cells for c in col))
            for col in pm.cells:
                for c in col:
                    fails = ["cell failed"] if c.failed else gate.check_solution(
                        c.x, c.y, c.graphon, c.entropy, c.feasible, c.podality, SCAN_TOL)
                    ctx.check("scan cell", {"eps": c.x, "tau": c.y}, fails)
        return dt / cells


class FiniteSize(Workload):
    """`phases sample` at n = 150 and 200, k-means on every retained sample,
    and enumerate_Z at n = 7."""

    name = "finite-size"
    per_cycle = True

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.chain_seed = int(self.rng.integers(2**31))
        eps = round(float(self.rng.uniform(0.35, 0.65)), 3)
        self.window = (eps, round(eps**3 * float(self.rng.uniform(0.5, 1.5)), 3), ENUM_DELTA)

    def inputs(self):
        return {"sample_target": SAMPLE_TARGET, "chain_seed": self.chain_seed,
                "enum_window": self.window, "n": self.size["sample_n"]}

    def items(self):
        return [partial(self.sample, n) for n in self.size["sample_n"]] + [self.enumerate]

    def sample(self, n, ctx):
        s = self.size
        eps, tau, delta = SAMPLE_TARGET
        burn, interval = BURN_IN_SQ * n * n, max(1, n * n // INTERVAL_DIV)
        d = _fresh_dir(os.path.join(ctx.work_dir, f"sample{n}"))
        argv = ["sample", "--n", str(n), "--eps", str(eps), "--tau", str(tau), "--delta", str(delta),
                "--chains", str(CHAINS), "--burn-in", str(burn), "--interval", str(interval),
                "--samples", str(s["samples"]), "--seed", str(self.chain_seed), "--out-dir", d,
                "--out", os.path.join(d, "summary.json")]
        dt, rc, _ = _run_cli(ctx, argv, os.path.join(d, "manifest.json"))
        proposals = CHAINS * (burn + interval * s["samples"])
        ctx.sample("proposals_per_s", proposals / dt)
        inputs = {"n": n, "target": SAMPLE_TARGET, "seed": self.chain_seed}
        if rc != 0:
            ctx.check("phases sample", inputs, [f"phases sample exited {rc}"])
            return dt
        with open(os.path.join(d, "summary.json")) as fh:
            chains = json.load(fh)["chains"]
        ctx.check("phases sample", inputs,
                  [f"chain {c['chain']}: {c.get('error')}" for c in chains if "samples" not in c])
        kmeans_s = 0.0
        for c in chains:
            # known defects, reported and not gated (ROADMAP item 4)
            ctx.note("acceptance", round(c["acceptance_rate"], 5))
            ctx.note("stalled", c["stalled"])
            for si in range(c["samples"]):
                g = _read_graph(os.path.join(d, f"chain{c['chain']:02d}_sample{si:03d}.txt"), n)
                where = dict(inputs, chain=c["chain"], sample=si)
                fails, edge = gate.check_sample(g, eps, tau, delta)
                ctx.check("chain sample", where, fails)
                if edge:  # a known sampler defect, reported and not gated
                    ctx.note("boundary_samples", dict(where, densities=edge))
                    ctx.count("sampler.boundary_samples", 1)
                t, est = _timed(sampler.estimate_block_structure, g, 2)
                kmeans_s += t
                # attempted, and fails only by raising: its block values are
                # criterion 7's open question, reported below ungated
                ctx.check("estimate_block_structure", dict(inputs, chain=c["chain"], sample=si), [])
                ctx.note("kmeans_blocks", [round(float(v), 4) for v in est.graphon.values.ravel()])
        ctx.sample("kmeans_s", kmeans_s)
        return dt + kmeans_s

    def enumerate(self, ctx):
        eps, tau, delta = self.window
        n = self.size["enum_n"]
        dt, rep = _timed(sampler.enumerate_Z, n, ConstraintVector.edge_triangle(eps, tau, delta))
        ctx.sample("enumerate_s", dt)
        ctx.check("enumerate_Z", {"n": n, "window": self.window},
                  gate.check_enumeration(n, eps, tau, delta, rep.z, rep.histogram))
        return dt


def _read_graph(path: str, n: int) -> FiniteGraph:
    """Parse a `u v` edge list with the node count known (an edge list alone
    drops trailing isolated nodes)."""
    with open(path) as fh:
        edges = [tuple(int(t) for t in line.split()) for line in fh if line.strip()]
    return FiniteGraph.from_edges(n, edges)


class Generic(Workload):
    """The half-blip signed sweep, permuton solves and counts, and graphon
    distances: the generic-einsum, permuton and metrics paths."""

    name = "generic"
    per_cycle = True

    # fixed for the reason given at Optimize.PANEL: across seeded targets a
    # perm solve took 0.5-1.7 s
    PERM_TERMS = (("12", 0.4), ("123", 0.25))

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        r = self.rng
        self.count_alpha = round(float(r.uniform(0.3, 0.7)), 3)
        e = round(float(r.uniform(0.3, 0.5)), 3)
        self.ref_targets = [(e, round(e**3 * float(r.uniform(0.3, 0.9)), 4)),
                            (e, round(e**3 * float(r.uniform(1.1, 1.5)), 4))]
        self.sweep_graphons = []

    def inputs(self):
        return {"signed_m": self.size["signed_m"], "perm_terms": self.PERM_TERMS,
                "count": (self.size["count_n"], "12", self.count_alpha, 0.1),
                "ref_targets": self.ref_targets}

    def items(self):
        return [self.signed_sweep, self.perm_solves, self.perm_count, self.distances]

    def signed_sweep(self, ctx):
        opts = OptimizerOptions(n_starts=self.size["signed_starts"])
        total, values, feasible, graphons = 0.0, [], [], []
        for m in self.size["signed_m"]:
            dt, res = _timed(optimizer.bounded_signed_max, T1, T2, m, opts)
            total += dt
            values.append(res.value)
            feasible.append(res.feasible)
            graphons.append(res.graphon)
        self.sweep_graphons = graphons
        ctx.sample("signed_sweep_s", total)
        ctx.check("bounded_signed_max sweep", {"m": self.size["signed_m"]},
                  gate.check_signed_sweep(values, feasible))
        return total

    def perm_solves(self, ctx):
        opts = PermutonOptimizerOptions(n_starts=self.size["perm_starts"])
        total = 0.0
        for pat, alpha in self.PERM_TERMS:
            terms = [(StarPattern.parse(pat), alpha)]
            dt, res = _timed(permuton.maximize_permuton_entropy, terms, self.size["perm_res"], opts)
            total += dt
            ctx.sample("perm_solve_s", dt)
            fails = gate.check_permuton(res.permuton.g, terms, opts.feasibility_tol)
            if not res.feasible:
                fails.append("reported infeasible")
            ctx.check("maximize_permuton_entropy", {"pattern": pat, "target": alpha}, fails)
        return total

    def perm_count(self, ctx):
        n = self.size["count_n"]
        dt, rep = _timed(permuton.count_constrained_perms, n,
                         [(StarPattern.parse("12"), self.count_alpha)], 0.1)
        ctx.sample("perm_count_s", dt)
        ctx.check("count_constrained_perms", {"n": n, "pattern": "12", "alpha": self.count_alpha},
                  gate.check_pattern12_count(n, self.count_alpha, 0.1, rep.count))
        return dt

    def distances(self, ctx):
        refs = [reference_construction(e, t) for e, t in self.ref_targets]
        pairs = [tuple(refs)]
        if len(self.sweep_graphons) >= 2:
            pairs.append(tuple(self.sweep_graphons[:2]))
        total = 0.0
        for q1, q2 in pairs:
            t0 = time.perf_counter()
            d12 = float(metrics.dbar_distance(q1, q2))
            d21 = float(metrics.dbar_distance(q2, q1))
            d11 = float(metrics.dbar_distance(q1, q1))
            c12 = metrics.cut_distance_upper(q1, q2)
            c11 = metrics.cut_distance_upper(q1, q1)
            total += time.perf_counter() - t0
            ctx.check("dbar/cut distances", {"m": (q1.m, q2.m)},
                      gate.check_distances(q1, q2, d12, d21, d11, c12, c11))
        return total


WORKLOADS = {w.name: w for w in (Optimize, Scan, FiniteSize, Generic)}

# The named end-to-end timings each workload reports in its summary lines,
# as (name, unit); failed_ratio, setup_s and peak_rss_mb apply to all.
NAMED = {
    "optimize": [("solve_s", "s")],
    "scan": [("cells_per_min", "cells/min")],
    "finite-size": [("proposals_per_s", "1/s"), ("enumerate_s", "s")],
    "generic": [("signed_sweep_s", "s"), ("perm_solve_s", "s"), ("perm_count_s", "s")],
}
