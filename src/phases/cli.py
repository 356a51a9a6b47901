"""Command-line entry point.

Subcommands: density, entropy, optimize, scan, reference, sample, enumerate,
perm-density, perm-optimize, perm-count, cut-distance.  Exit codes: 0 on
success, 2 when an optimization or sampling target is infeasible, 1 on
usage/config errors.  A --config file (JSON, TOML or a previous manifest) is
read as flags right after the subcommand, so argparse checks its values like
typed flags and the command line's own flags win.  Only a run that passes the
parser's checks writes a manifest of its options; a manifest fed back through
--config reproduces its run.
"""

from __future__ import annotations

import argparse
import json
import math
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
from .scan import RESOLUTION_CAP, SPIKE_FACTOR, SVG_FIELDS, phase_scan
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


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_finite(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def grid_cells(text: str) -> str:
    """NXxNY cells, each count 1..RESOLUTION_CAP, kept as typed for the manifest."""
    try:
        counts = [int(t) for t in text.lower().split("x")]
    except ValueError:
        counts = []
    if len(counts) != 2 or not all(1 <= c <= RESOLUTION_CAP for c in counts):
        raise argparse.ArgumentTypeError(
            f"expected NXxNY cells, each 1..{RESOLUTION_CAP}, such as 20x20; got {text!r}")
    return text


def model_name(text: str) -> str:
    """A model `_model_patterns` reads, kept as typed for the manifest."""
    try:
        _model_patterns(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected edge-triangle or edge-kstar:K with K >= 1; got {text!r}") from exc
    return text


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


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with its --config file's entries as flags placed right after
    the subcommand, so the command line's own flags win; a repeatable flag
    keeps the config's list only when the command line does not give it."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    # the top-level parser has no valued flags: its first positional is the subcommand
    name = next((arg for arg in argv if not arg.startswith("-")), None)
    if not path or name not in parser.subcommands:
        return parser.parse_args(argv)
    config = _load_config(path)
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must hold a table/object")
    actions = {a.dest: a for a in parser.subcommands[name]._actions
               if a.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(actions) - {"subcommand"})
    if unknown:
        raise UsageError(f"config {path} has unknown keys: {', '.join(unknown)}")
    flags, lists = [], {}
    for key, value in config.items():
        action = actions.get(key)
        if action is None or value is None:  # "subcommand" (argv names it) or an unset option
            continue
        flag = action.option_strings[0]
        if isinstance(action, argparse._AppendAction):
            lists[key] = [str(v) for v in (value if isinstance(value, list) else [value])]
        elif action.nargs != 0:
            flags.append(f"{flag}={value}")
        elif value:  # a store_true flag
            flags.append(flag)
    at = argv.index(name) + 1
    ns = parser.parse_args(argv[:at] + flags + argv[at:])
    for key, items in lists.items():
        if getattr(ns, key) is None:
            setattr(ns, key, items)
    return ns


def _write_manifest(sub: str, opts: dict) -> None:
    path = opts.get("manifest")
    if not path:
        if opts.get("out"):
            path = opts["out"] + ".manifest.json"
        elif opts.get("out_dir"):
            path = os.path.join(opts["out_dir"], "manifest.json")
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
        n_starts=opts["starts"],
        seed=opts["seed"],
        m_max=opts["m_max"],
        feasibility_tol=opts["tol"],
    )


def _constraints_from_opts(opts: dict) -> ConstraintVector:
    delta = opts.get("delta", 0.0)
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
    return ConstraintVector(((SubgraphPattern.edge(), eps), (p2, tau)), delta)


def _model_patterns(model: str) -> tuple[SubgraphPattern, SubgraphPattern]:
    if model == "edge-triangle":
        return SubgraphPattern.edge(), SubgraphPattern.triangle()
    if model.startswith("edge-kstar:"):
        return SubgraphPattern.edge(), SubgraphPattern.star(int(model[len("edge-kstar:"):]))
    raise ValueError(f"unknown model {model!r}")


# -- subcommands -------------------------------------------------------------


def _cmd_density(opts):
    q = load_step_graphon(opts["graphon"])
    pat = load_pattern(opts["pattern"])
    val = subgraph_density(q, pat, vertex_cap=opts["vertex_cap"])
    _emit({"density": val, "pattern": pat.to_dict()}, opts["out"])
    return 0


def _cmd_entropy(opts):
    q = load_step_graphon(opts["graphon"])
    _emit({"entropy": graphon_entropy(q)}, opts["out"])
    return 0


def _cmd_optimize(opts):
    oo = _optimizer_options(opts)
    m = opts["m"]
    if opts.get("signed_objective"):
        res = bounded_signed_max(
            load_pattern(opts["signed_objective"]),
            load_pattern(opts["signed_zero"]),
            2 if m is None else m,
            oo,
        )
        _emit(res.to_dict(), opts["out"])
        return 0 if res.feasible else 2
    cons = _constraints_from_opts(opts)
    res = constrained_entropy(cons, oo) if m is None else maximize_entropy(cons, m, oo)
    _emit(res.to_dict(), opts["out"])
    return 0 if res.feasible else 2


def _cmd_reference(opts):
    q = reference_construction(opts["eps"], opts["tau"])
    _emit(q.to_dict(), opts["out"])
    return 0


def _cmd_scan(opts):
    nx, ny = (int(t) for t in opts["grid"].lower().split("x"))
    pats = _model_patterns(opts["model"])
    pm = phase_scan(
        pats,
        (opts["eps_min"], opts["eps_max"]),
        (opts["tau_min"], opts["tau_max"]),
        (nx, ny),
        _optimizer_options(opts),
        spike_factor=opts["spike_factor"],
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
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    # one RNG stream per chain: seeds split from the base seed
    seeds = np.random.SeedSequence(opts["seed"]).generate_state(opts["chains"])
    summaries = []
    rows = []
    any_infeasible = False
    for ci in range(opts["chains"]):
        cfg = ChainConfig(
            n=opts["n"],
            constraints=cons,
            seed=int(seeds[ci]),
            burn_in=opts["burn_in"],
            sample_interval=opts["interval"],
            n_samples=opts["samples"],
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
    rep = enumerate_Z(opts["n"], cons)
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
    if opts["perm"]:
        pi = load_permutation(opts["perm"])
        val = perm_pattern_density(pi, pat)
        doc = {
            "density": float(val),
            "exact": [val.numerator, val.denominator],
            "pattern": str(pat),
        }
    else:
        gamma = load_grid_permuton(opts["permuton"])
        val = permuton_pattern_density(gamma, pat, method=opts["method"],
                                       samples=opts["samples"], seed=opts["seed"])
        doc = {"density": val, "pattern": str(pat), "method": opts["method"]}
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
        opts["resolution"],
        PermutonOptimizerOptions(n_starts=opts["starts"], seed=opts["seed"]),
    )
    _emit(res.to_dict(), opts["out"])
    return 0 if res.feasible else 2


def _cmd_perm_count(opts):
    rep = count_constrained_perms(
        opts["n"],
        [(StarPattern.parse(opts["pattern"]), opts["alpha"])],
        opts["delta"],
    )
    _emit(rep.to_dict(), opts["out"])
    return 0


def _cmd_cut_distance(opts):
    q1 = load_step_graphon(opts["a"])
    q2 = load_step_graphon(opts["b"])
    doc = {"cut_distance_upper": cut_distance_upper(q1, q2)}
    if opts["dbar"]:
        doc["dbar"] = dbar_distance(q1, q2, opts["max_order"]).to_dict()
    _emit(doc, opts["out"])
    return 0


# -- wiring ------------------------------------------------------------------


def _common(parser):
    parser.add_argument("--out", help="primary output file (default: stdout)")
    parser.add_argument("--manifest", help="manifest path (default: derived)")
    parser.add_argument("--config", help="JSON/TOML config or a previous manifest")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="recorded in the manifest only; every run is serial")


def _optimizer_flags(parser, starts=OptimizerOptions.n_starts, m_max=OptimizerOptions.m_max):
    parser.add_argument("--starts", type=int, default=starts, help="multistart count")
    parser.add_argument("--m-max", dest="m_max", type=int, default=m_max)
    parser.add_argument("--tol", type=float, default=OptimizerOptions.feasibility_tol,
                        help="feasibility tolerance")


def _target_flags(parser):
    parser.add_argument("--model", type=model_name, default="edge-triangle")
    parser.add_argument("--eps", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--constraints", help="JSON constraint list file")


def build_parser() -> _Parser:
    parser = _Parser(prog="phases", description=__doc__)
    parser.add_argument("--version", action="version", version=f"phases {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommands = subs.choices

    p = subs.add_parser("density", help="pattern density of a step graphon")
    p.add_argument("--graphon", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--vertex-cap", dest="vertex_cap", type=int, default=DEFAULT_VERTEX_CAP)
    _common(p)
    p.set_defaults(func=_cmd_density)

    p = subs.add_parser("entropy", help="Shannon entropy of a step graphon")
    p.add_argument("--graphon", required=True)
    _common(p)
    p.set_defaults(func=_cmd_entropy)

    p = subs.add_parser("optimize", help="constrained entropy maximization")
    _target_flags(p)
    p.add_argument("--m", type=int, help="fix the ansatz size (else escalate)")
    p.add_argument("--signed-objective", dest="signed_objective",
                   help="maximize this signed density instead of entropy")
    p.add_argument("--signed-zero", dest="signed_zero", default="t2",
                   help="signed density pinned to zero (with --signed-objective)")
    _optimizer_flags(p)
    _common(p)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("reference", help="closed-form edge/triangle construction")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    _common(p)
    p.set_defaults(func=_cmd_reference)

    p = subs.add_parser("scan", help="phase-space grid scan")
    p.add_argument("--model", type=model_name, default="edge-triangle")
    p.add_argument("--grid", type=grid_cells, default="20x20", help="NXxNY cells")
    p.add_argument("--eps-min", dest="eps_min", type=float, default=0.2)
    p.add_argument("--eps-max", dest="eps_max", type=float, default=0.5)
    p.add_argument("--tau-min", dest="tau_min", type=float, default=0.0)
    p.add_argument("--tau-max", dest="tau_max", type=float, default=0.2)
    p.add_argument("--svg", help="SVG heatmap output path")
    p.add_argument("--svg-field", dest="svg_field", default="entropy", choices=SVG_FIELDS)
    p.add_argument("--spike-factor", dest="spike_factor", type=positive_finite,
                   default=SPIKE_FACTOR)
    _optimizer_flags(p, starts=6, m_max=3)
    _common(p)
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("sample", help="microcanonical MCMC over finite graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _target_flags(p)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--interval", type=int)
    p.add_argument("--chains", type=positive_int, default=1)
    _common(p)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("enumerate", help="exact count of constrained graphs")
    p.add_argument("--n", type=int, required=True)
    _target_flags(p)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--histogram", help="write the edge/triangle histogram CSV")
    p.add_argument("--full-histogram", dest="full_histogram", action="store_true")
    _common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("perm-density", help="pattern density in a permutation or permuton")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--perm", help="permutation file (one-line values)")
    source.add_argument("--permuton", help="grid permuton JSON file")
    p.add_argument("--pattern", required=True, help='e.g. "12", "123", "*2*"')
    p.add_argument("--method", default="exact", choices=("exact", "montecarlo"))
    p.add_argument("--samples", type=positive_int, default=200000)
    _common(p)
    p.set_defaults(func=_cmd_perm_density)

    p = subs.add_parser("perm-optimize", help="constrained permuton entropy maximization")
    p.add_argument("--constraint", action="append", help="PATTERN=TARGET (repeatable)")
    p.add_argument("--resolution", type=int, default=20)
    p.add_argument("--starts", type=int, default=PermutonOptimizerOptions.n_starts)
    _common(p)
    p.set_defaults(func=_cmd_perm_optimize)

    p = subs.add_parser("perm-count", help="exact count of constrained permutations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    _common(p)
    p.set_defaults(func=_cmd_perm_count)

    p = subs.add_parser("cut-distance", help="distances between step graphons")
    p.add_argument("--a", required=True, help="first graphon JSON")
    p.add_argument("--b", required=True, help="second graphon JSON")
    p.add_argument("--dbar", action="store_true")
    p.add_argument("--max-order", dest="max_order", type=int, default=5)
    _common(p)
    p.set_defaults(func=_cmd_cut_distance)

    return parser


def main(argv=None) -> int:
    try:
        ns = _parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
        opts = {k: v for k, v in vars(ns).items() if k not in ("func", "config")}
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
