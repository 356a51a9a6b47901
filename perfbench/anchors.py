"""The ROADMAP's numbers to beat, measured at the CLI defaults.

    python3 perfbench/anchors.py [OUT.json]

Measures, on the machine it runs on:
  - the (0.4, 0.05) edge/triangle solve at `phases optimize` defaults
    (40 starts, m_max 6), and the share of it spent at m >= 3;
  - microseconds per proposal and acceptance of one n = 150 chain at
    (0.5, 0.1), delta = 0.01, with the default schedule (50 n^2 burn-in);
  - a 4x4 `phases scan` grid over the default rectangle at 2 threads and
    serial.
These runs take several minutes, so they are a one-off record, not part of
the benchmark's timed runs.
"""

from __future__ import annotations

import json
import sys
import time

import warmup


def main(argv) -> int:
    warmup.pin_threads()
    phases = warmup.import_phases()
    import harness
    import tracer as tracing
    from phases import optimizer, sampler, scan
    from phases.graphon import SubgraphPattern

    warmup.warm_up(phases)
    out = {"metadata": harness.metadata()}

    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        t0 = time.perf_counter()
        res = optimizer.constrained_entropy(phases.ConstraintVector.edge_triangle(0.4, 0.05))
        solve = time.perf_counter() - t0
    finally:
        tr.uninstall()
    per_m = {}
    for s in tr.spans:
        if s["name"] == "optimizer.maximize_entropy":
            per_m[s["attrs"]["m"]] = per_m.get(s["attrs"]["m"], 0.0) + s["end"] - s["start"]
    out["solve_0.4_0.05"] = {
        "seconds": solve, "m": res.m, "podality": res.podality, "per_m_s": per_m,
        "m_ge_3_share": sum(v for m, v in per_m.items() if m >= 3) / solve,
    }

    cfg = phases.ChainConfig(n=150, constraints=phases.ConstraintVector.edge_triangle(0.5, 0.1, 0.01), seed=5)
    t0 = time.perf_counter()
    run = sampler.sample_constrained(cfg)
    chain = time.perf_counter() - t0
    proposals = cfg.burn_in_steps + cfg.interval_steps * cfg.n_samples
    out["chain_n150"] = {"seconds": chain, "proposals": proposals,
                         "us_per_proposal": 1e6 * chain / proposals,
                         "acceptance": run.acceptance_rate, "stalled": run.stalled}

    pats = (SubgraphPattern.edge(), SubgraphPattern.triangle())
    opts = phases.OptimizerOptions(n_starts=6, m_max=3)
    for threads in (2, 1):
        t0 = time.perf_counter()
        pm = scan.phase_scan(pats, (0.2, 0.5), (0.0, 0.2), (4, 4), opts, threads=threads)
        out[f"scan_4x4_threads{threads}"] = {
            "seconds": time.perf_counter() - t0,
            "feasible_cells": sum(c.feasible for col in pm.cells for c in col),
        }
    text = json.dumps(out, indent=1, default=str)
    print(text)
    if len(argv) > 1:
        with open(argv[1], "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
