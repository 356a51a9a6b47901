"""Command-line entry point.

Subcommands: density, entropy, optimize, scan, reference, sample, enumerate,
perm-density, perm-optimize, perm-count, cut-distance.  Exit codes: 0 on
success, 2 when an optimization or sampling target is infeasible, 1 on
usage/config errors.  Every run writes a manifest echoing the resolved
options; a manifest can be fed back via --config to reproduce a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .graphon import (
    DEFAULT_VERTEX_CAP,
    ConstraintVector,
    SubgraphPattern,
    graphon_entropy,
    subgraph_density,
)
from .metrics import cut_distance_upper, dbar_distance
from .optimizer import (
    OptimizerOptions,
    bounded_signed_max,
    constrained_entropy,
    maximize_entropy,
    reference_construction,
)
from .permuton import (
    PermutonOptimizerOptions,
    StarPattern,
    count_constrained_perms,
    maximize_permuton_entropy,
    perm_pattern_density,
    permuton_pattern_density,
)
from .sampler import ChainConfig, SamplerInitError, enumerate_Z, sample_constrained
from .scan import SPIKE_FACTOR, SVG_FIELDS, phase_scan
from .serialize import (
    FileFormatError,
    load_grid_permuton,
    load_pattern,
    load_permutation,
    load_step_graphon,
    save_finite_graph,
    write_json,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_DEFAULTS: dict[tuple[str, str], object] = {}
# options a run needs, by (subcommand, dest); a --config file may supply them,
# so they are checked after the merge, not by argparse
_REQUIRED: dict[tuple[str, str], str] = {}


def _opt(parser, sub: str, *names, default=None, **kwargs):
    action = parser.add_argument(*names, default=None, **kwargs)
    _DEFAULTS[(sub, action.dest)] = default
    return action


def _required(parser, sub: str, name: str, **kwargs):
    action = parser.add_argument(name, **kwargs)
    _REQUIRED[(sub, action.dest)] = name
    return action


def _load_config(path: str) -> dict:
    if path.endswith(".toml"):
        try:
            import tomllib  # py311+
        except ImportError:
            try:
                import tomli as tomllib
            except ImportError as exc:
                raise UsageError(
                    "TOML config needs Python 3.11+ or the tomli package; "
                    "JSON configs always work"
                ) from exc
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "options" in doc and "subcommand" in doc:
        return doc["options"]  # a manifest doubles as a config
    return doc


def _resolve(ns: argparse.Namespace, sub: str) -> dict:
    opts = vars(ns).copy()
    opts.pop("func", None)
    config_path = opts.pop("config", None)
    if config_path:
        config = _load_config(config_path)
        if not isinstance(config, dict):
            raise UsageError(f"config {config_path} must hold a table/object")
        valid = set(opts)
        unknown = [k for k in config if k not in valid]
        if unknown:
            raise UsageError(
                f"config {config_path} has unknown keys: {', '.join(sorted(unknown))}"
            )
        for k, v in config.items():
            if opts.get(k) is None:
                opts[k] = v
    missing = [
        name for (owner, dest), name in _REQUIRED.items()
        if owner == sub and opts.get(dest) is None
    ]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    for key, val in list(opts.items()):
        if val is None and (sub, key) in _DEFAULTS:
            opts[key] = _DEFAULTS[(sub, key)]
    return opts


def _write_manifest(sub: str, opts: dict) -> None:
    path = opts.get("manifest")
    if not path:
        if opts.get("out"):
            path = str(opts["out"]) + ".manifest.json"
        elif opts.get("out_dir"):
            path = os.path.join(str(opts["out_dir"]), "manifest.json")
        else:
            path = "phases-manifest.json"
    doc = {
        "tool": "phases",
        "version": __version__,
        "subcommand": sub,
        "options": {k: v for k, v in sorted(opts.items()) if k != "manifest"},
    }
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_json(doc, path)


def _emit(doc, out: str | None) -> None:
    text = write_json(doc, out)
    if not out:
        print(text)


def _optimizer_options(opts: dict) -> OptimizerOptions:
    return OptimizerOptions(
        n_starts=int(opts["starts"]),
        seed=int(opts["seed"]),
        m_max=int(opts["m_max"]),
        feasibility_tol=float(opts["tol"]),
    )


def _constraints_from_opts(opts: dict) -> ConstraintVector:
    delta = float(opts.get("delta") or 0.0)
    if opts.get("constraints"):
        path = opts["constraints"]
        with open(path) as fh:
            doc = json.load(fh)
        terms = []
        for i, item in enumerate(doc):
            if not isinstance(item, dict) or "pattern" not in item or "target" not in item:
                raise FileFormatError(path, f"[{i}]", "needs pattern and target")
            spec = item["pattern"]
            pat = (
                SubgraphPattern.from_dict(spec)
                if isinstance(spec, dict)
                else load_pattern(str(spec))
            )
            terms.append((pat, float(item["target"])))
        return ConstraintVector(tuple(terms), delta)
    eps, tau = opts.get("eps"), opts.get("tau")
    if eps is None or tau is None:
        raise UsageError("need --eps and --tau (or --constraints FILE)")
    p2 = _model_patterns(opts["model"])[1]
    return ConstraintVector(
        ((SubgraphPattern.edge(), float(eps)), (p2, float(tau))), delta
    )


def _model_patterns(model: str) -> tuple[SubgraphPattern, SubgraphPattern]:
    if model == "edge-triangle":
        return SubgraphPattern.edge(), SubgraphPattern.triangle()
    if model.startswith("edge-kstar:"):
        return SubgraphPattern.edge(), SubgraphPattern.star(int(model.split(":")[1]))
    raise UsageError(f"unknown model {model!r} (edge-triangle or edge-kstar:K)")


# -- subcommands -------------------------------------------------------------


def _cmd_density(opts):
    q = load_step_graphon(opts["graphon"])
    pat = load_pattern(opts["pattern"])
    val = subgraph_density(q, pat, vertex_cap=int(opts["vertex_cap"]))
    _emit({"density": val, "pattern": pat.to_dict()}, opts["out"])
    return 0


def _cmd_entropy(opts):
    q = load_step_graphon(opts["graphon"])
    _emit({"entropy": graphon_entropy(q)}, opts["out"])
    return 0


def _cmd_optimize(opts):
    oo = _optimizer_options(opts)
    m = opts.get("m")
    if opts.get("signed_objective"):
        res = bounded_signed_max(
            load_pattern(opts["signed_objective"]),
            load_pattern(opts["signed_zero"]),
            2 if m is None else int(m),
            oo,
        )
        _emit(res.to_dict(), opts["out"])
        return 0 if res.feasible else 2
    cons = _constraints_from_opts(opts)
    if m is not None:
        res = maximize_entropy(cons, int(m), oo)
    else:
        res = constrained_entropy(cons, oo)
    _emit(res.to_dict(), opts["out"])
    return 0 if res.feasible else 2


def _cmd_reference(opts):
    q = reference_construction(float(opts["eps"]), float(opts["tau"]))
    _emit(q.to_dict(), opts["out"])
    return 0


def _cmd_scan(opts):
    if opts["svg_field"] not in SVG_FIELDS:
        raise UsageError(f"unknown --svg-field {opts['svg_field']!r} ({' | '.join(SVG_FIELDS)})")
    nx, ny = (int(t) for t in str(opts["grid"]).lower().split("x"))
    pats = _model_patterns(opts["model"])
    pm = phase_scan(
        pats,
        (float(opts["eps_min"]), float(opts["eps_max"])),
        (float(opts["tau_min"]), float(opts["tau_max"])),
        (nx, ny),
        _optimizer_options(opts),
        spike_factor=float(opts["spike_factor"]),
        model=opts["model"],
    )
    if opts["out"]:
        pm.to_csv(opts["out"])
    if opts["svg"]:
        pm.to_svg(opts["svg"], opts["svg_field"])
    n_feas = sum(
        1 for col in pm.cells for cell in col if cell.feasible
    )
    _emit(
        {
            "cells": pm.nx * pm.ny,
            "feasible_cells": n_feas,
            "transition_candidates": int(pm.transition.sum()),
            "csv": opts["out"],
            "svg": opts["svg"],
        },
        None,
    )
    return 0


def _cmd_sample(opts):
    cons = _constraints_from_opts(opts)
    if cons.delta <= 0:
        raise UsageError("sampling needs --delta > 0")
    chains = int(opts["chains"])
    if chains < 1:
        raise UsageError(f"--chains must be at least 1, got {chains}")
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    # one RNG stream per chain: seeds split from the base seed
    seeds = np.random.SeedSequence(int(opts["seed"])).generate_state(chains)
    summaries = []
    rows = []
    any_infeasible = False
    for ci in range(chains):
        cfg = ChainConfig(
            n=int(opts["n"]),
            constraints=cons,
            seed=int(seeds[ci]),
            burn_in=int(opts["burn_in"]) if opts.get("burn_in") is not None else None,
            sample_interval=int(opts["interval"]) if opts.get("interval") is not None else None,
            n_samples=int(opts["samples"]),
        )
        try:
            run = sample_constrained(cfg)
        except SamplerInitError as exc:
            any_infeasible = True
            summaries.append({"chain": ci, "error": str(exc)})
            continue
        for si, g in enumerate(run.graphs):
            fname = f"chain{ci:02d}_sample{si:03d}.txt"
            save_finite_graph(g, os.path.join(out_dir, fname))
            rows.append(
                [ci, si, cfg.sample_step(si)] + [f"{d!r}" for d in run.densities[si].tolist()]
            )
        summaries.append(
            {
                "chain": ci,
                "seed": int(seeds[ci]),
                "acceptance_rate": run.acceptance_rate,
                "stalled": run.stalled,
                "samples": len(run.graphs),
            }
        )
    header = ["chain", "sample", "step"] + [
        f"density_{i}" for i in range(len(cons))
    ]
    with open(os.path.join(out_dir, "samples.csv"), "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    _emit({"chains": summaries, "out_dir": out_dir}, opts["out"])
    return 2 if any_infeasible else 0


def _cmd_enumerate(opts):
    cons = _constraints_from_opts(opts)
    rep = enumerate_Z(int(opts["n"]), cons)
    if opts["histogram"]:
        with open(opts["histogram"], "w") as fh:
            fh.write("edge_count,triangle_count,count\n")
            for e, t, c in rep.histogram:
                fh.write(f"{e},{t},{c}\n")
    doc = rep.to_dict()
    if not opts["full_histogram"]:
        doc.pop("histogram")
    _emit(doc, opts["out"])
    return 0


def _cmd_perm_density(opts):
    pat = StarPattern.parse(opts["pattern"])
    if opts.get("perm"):
        pi = load_permutation(opts["perm"])
        val = perm_pattern_density(pi, pat)
        doc = {
            "density": float(val),
            "exact": [val.numerator, val.denominator],
            "pattern": str(pat),
        }
    elif opts.get("permuton"):
        gamma = load_grid_permuton(opts["permuton"])
        val = permuton_pattern_density(
            gamma,
            pat,
            method=opts["method"],
            samples=int(opts["samples"]),
            seed=int(opts["seed"]),
        )
        doc = {"density": val, "pattern": str(pat), "method": opts["method"]}
    else:
        raise UsageError("need --perm FILE or --permuton FILE")
    _emit(doc, opts["out"])
    return 0


def _cmd_perm_optimize(opts):
    terms = []
    for spec in opts["constraint"] or []:
        if "=" not in spec:
            raise UsageError(f"constraint {spec!r} must look like PATTERN=TARGET")
        pat_s, tgt = spec.split("=", 1)
        terms.append((StarPattern.parse(pat_s), float(tgt)))
    if not terms:
        raise UsageError("need at least one --constraint PATTERN=TARGET")
    res = maximize_permuton_entropy(
        terms,
        int(opts["resolution"]),
        PermutonOptimizerOptions(n_starts=int(opts["starts"]), seed=int(opts["seed"])),
    )
    _emit(res.to_dict(), opts["out"])
    return 0 if res.feasible else 2


def _cmd_perm_count(opts):
    rep = count_constrained_perms(
        int(opts["n"]),
        [(StarPattern.parse(opts["pattern"]), float(opts["alpha"]))],
        float(opts["delta"]),
    )
    _emit(rep.to_dict(), opts["out"])
    return 0


def _cmd_cut_distance(opts):
    q1 = load_step_graphon(opts["a"])
    q2 = load_step_graphon(opts["b"])
    doc = {"cut_distance_upper": cut_distance_upper(q1, q2)}
    if opts["dbar"]:
        doc["dbar"] = dbar_distance(q1, q2, int(opts["max_order"])).to_dict()
    _emit(doc, opts["out"])
    return 0


# -- wiring ------------------------------------------------------------------


def _common(parser, sub):
    _opt(parser, sub, "--out", help="primary output file (default: stdout)")
    _opt(parser, sub, "--manifest", help="manifest path (default: derived)")
    _opt(parser, sub, "--config", help="JSON/TOML config or a previous manifest")
    _opt(parser, sub, "--seed", type=int, default=0)
    _opt(parser, sub, "--threads", type=int, default=1,
         help="recorded in the manifest only; every run is serial")


def _optimizer_flags(parser, sub, starts=OptimizerOptions.n_starts, m_max=OptimizerOptions.m_max):
    _opt(parser, sub, "--starts", type=int, default=starts, help="multistart count")
    _opt(parser, sub, "--m-max", dest="m_max", type=int, default=m_max)
    _opt(parser, sub, "--tol", type=float, default=OptimizerOptions.feasibility_tol,
         help="feasibility tolerance")


def _target_flags(parser, sub):
    _opt(parser, sub, "--model", default="edge-triangle")
    _opt(parser, sub, "--eps", type=float)
    _opt(parser, sub, "--tau", type=float)
    _opt(parser, sub, "--constraints", help="JSON constraint list file")


def build_parser() -> _Parser:
    parser = _Parser(prog="phases", description=__doc__)
    parser.add_argument("--version", action="version", version=f"phases {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("density", help="pattern density of a step graphon")
    _required(p, "density", "--graphon")
    _required(p, "density", "--pattern")
    _opt(p, "density", "--vertex-cap", dest="vertex_cap", type=int, default=DEFAULT_VERTEX_CAP)
    _common(p, "density")
    p.set_defaults(func=_cmd_density)

    p = subs.add_parser("entropy", help="Shannon entropy of a step graphon")
    _required(p, "entropy", "--graphon")
    _common(p, "entropy")
    p.set_defaults(func=_cmd_entropy)

    p = subs.add_parser("optimize", help="constrained entropy maximization")
    _target_flags(p, "optimize")
    _opt(p, "optimize", "--m", type=int, help="fix the ansatz size (else escalate)")
    _opt(p, "optimize", "--signed-objective", dest="signed_objective",
         help="maximize this signed density instead of entropy")
    _opt(p, "optimize", "--signed-zero", dest="signed_zero", default="t2",
         help="signed density pinned to zero (with --signed-objective)")
    _optimizer_flags(p, "optimize")
    _common(p, "optimize")
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("reference", help="closed-form edge/triangle construction")
    _required(p, "reference", "--eps", type=float)
    _required(p, "reference", "--tau", type=float)
    _common(p, "reference")
    p.set_defaults(func=_cmd_reference)

    p = subs.add_parser("scan", help="phase-space grid scan")
    _opt(p, "scan", "--model", default="edge-triangle")
    _opt(p, "scan", "--grid", default="20x20", help="NXxNY cells")
    _opt(p, "scan", "--eps-min", dest="eps_min", type=float, default=0.2)
    _opt(p, "scan", "--eps-max", dest="eps_max", type=float, default=0.5)
    _opt(p, "scan", "--tau-min", dest="tau_min", type=float, default=0.0)
    _opt(p, "scan", "--tau-max", dest="tau_max", type=float, default=0.2)
    _opt(p, "scan", "--svg", help="SVG heatmap output path")
    _opt(p, "scan", "--svg-field", dest="svg_field", default="entropy",
         help=" | ".join(SVG_FIELDS))
    _opt(p, "scan", "--spike-factor", dest="spike_factor", type=float, default=SPIKE_FACTOR)
    _optimizer_flags(p, "scan", starts=6, m_max=3)
    _common(p, "scan")
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("sample", help="microcanonical MCMC over finite graphs")
    _required(p, "sample", "--n", type=int)
    _required(p, "sample", "--out-dir", dest="out_dir")
    _target_flags(p, "sample")
    _opt(p, "sample", "--delta", type=float, default=0.01)
    _opt(p, "sample", "--samples", type=int, default=10)
    _opt(p, "sample", "--burn-in", dest="burn_in", type=int)
    _opt(p, "sample", "--interval", type=int)
    _opt(p, "sample", "--chains", type=int, default=1)
    _common(p, "sample")
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("enumerate", help="exact count of constrained graphs")
    _required(p, "enumerate", "--n", type=int)
    _target_flags(p, "enumerate")
    _opt(p, "enumerate", "--delta", type=float, default=0.05)
    _opt(p, "enumerate", "--histogram", help="write the edge/triangle histogram CSV")
    _opt(p, "enumerate", "--full-histogram", dest="full_histogram",
         action="store_true", default=False)
    _common(p, "enumerate")
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("perm-density", help="pattern density in a permutation or permuton")
    _opt(p, "perm-density", "--perm", help="permutation file (one-line values)")
    _opt(p, "perm-density", "--permuton", help="grid permuton JSON file")
    _required(p, "perm-density", "--pattern", help='e.g. "12", "123", "*2*"')
    _opt(p, "perm-density", "--method", default="exact")
    _opt(p, "perm-density", "--samples", type=int, default=200000)
    _common(p, "perm-density")
    p.set_defaults(func=_cmd_perm_density)

    p = subs.add_parser("perm-optimize", help="constrained permuton entropy maximization")
    p.add_argument("--constraint", action="append", help="PATTERN=TARGET (repeatable)")
    _opt(p, "perm-optimize", "--resolution", type=int, default=20)
    _opt(p, "perm-optimize", "--starts", type=int, default=PermutonOptimizerOptions.n_starts)
    _common(p, "perm-optimize")
    p.set_defaults(func=_cmd_perm_optimize)

    p = subs.add_parser("perm-count", help="exact count of constrained permutations")
    _required(p, "perm-count", "--n", type=int)
    _required(p, "perm-count", "--pattern")
    _required(p, "perm-count", "--alpha", type=float)
    _opt(p, "perm-count", "--delta", type=float, default=0.1)
    _common(p, "perm-count")
    p.set_defaults(func=_cmd_perm_count)

    p = subs.add_parser("cut-distance", help="distances between step graphons")
    _required(p, "cut-distance", "--a", help="first graphon JSON")
    _required(p, "cut-distance", "--b", help="second graphon JSON")
    _opt(p, "cut-distance", "--dbar", action="store_true", default=False)
    _opt(p, "cut-distance", "--max-order", dest="max_order", type=int, default=5)
    _common(p, "cut-distance")
    p.set_defaults(func=_cmd_cut_distance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        opts = _resolve(ns, ns.subcommand)
        _write_manifest(ns.subcommand, opts)
        return ns.func(opts)
    except UsageError as exc:
        print(f"phases: error: {exc}", file=sys.stderr)
        return 1
    except FileFormatError as exc:
        print(f"phases: bad input: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"phases: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
