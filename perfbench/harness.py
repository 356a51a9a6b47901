"""One benchmark run: set-up probes, the workload's cycles, the gate, the
metrics, and the run record.

End-to-end metrics (untraced runs), the same three on every workload:
  setup_s      median of SETUP_PROBES fresh processes, each timed from
               process start until `phases` is imported and warm_up() has
               filled its caches
  item_s       median wall time of one item: for optimize, finite-size and
               generic one cycle (optimize's is its panel of four solves; see
               workloads), as the sum of each of its items' median over the
               run's cycles; for scan one grid cell, a whole `phases scan`
               call divided by its cells
  peak_rss_mb  peak resident memory of the run's process by the end of its
               first cycle (later cycles repeat the same inputs but can raise
               the peak through allocator fragmentation, and how many cycles
               fit depends on the host's speed)

Per-layer metrics (traced runs) are per cycle unless named as a median,
ratio or rate; layers a workload never calls read 0.  Self time is a span's
wall duration minus the part covered by its child spans and minus hot-call
time of other layers inside it.  Inside the scan and sample thread pools a
span's wall time includes waiting for the interpreter lock, so per-layer
seconds there can add up to more than the call's wall time.  Pool
efficiencies and sampler.proposal_us therefore use the thread CPU time of
cells and chains.  trace.overhead_s is the traced cycles' item_s minus that
of one untraced cycle run first in the same process: a single untraced
sample, so it cannot resolve an overhead smaller than the host's drift.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer as tracing
import warmup
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(warmup.ROOT, ".perfbench-out")
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "item_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("cli", "scan", "optimizer", "gradients", "graphon", "sampler",
          "permuton", "metrics", "serialize", "svg")

# name -> (unit, better)
PER_LAYER = {
    "optimizer.maximize_calls": ("count", "lower"),
    **{f"optimizer.m{m}_s": ("s", "lower") for m in range(1, 7)},
    "optimizer.escalation_waste": ("ratio", "lower"),
    "optimizer.self_s": ("s", "lower"),
    "gradients.value_calls": ("count", "lower"),
    "gradients.grad_calls": ("count", "lower"),
    "gradients.generic_calls": ("count", "lower"),
    "gradients.busy_s": ("s", "lower"),
    "graphon.canonicalize_calls": ("count", "lower"),
    "graphon.density_calls": ("count", "lower"),
    "graphon.busy_s": ("s", "lower"),
    "scan.cell_s": ("s", "lower"),
    "scan.warm_seeds": ("count", "higher"),
    "scan.failed_cells": ("count", "lower"),
    "scan.csv_s": ("s", "lower"),
    "scan.pool_efficiency": ("ratio", "higher"),
    "scan.self_s": ("s", "lower"),
    "sampler.proposals": ("count", "higher"),
    "sampler.proposal_us": ("us", "lower"),
    "sampler.acceptance": ("ratio", "higher"),
    "sampler.stalled_chains": ("count", "lower"),
    "sampler.boundary_samples": ("count", "lower"),
    "sampler.chain_s": ("s", "lower"),
    "sampler.kmeans_s": ("s", "lower"),
    "sampler.enum_graphs_per_s": ("1/s", "higher"),
    "sampler.self_s": ("s", "lower"),
    "cli.pool_efficiency": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
    "permuton.solve_s": ("s", "lower"),
    "permuton.feasible_ratio": ("ratio", "higher"),
    "permuton.projections": ("count", "lower"),
    "permuton.count_s": ("s", "lower"),
    "permuton.perms_per_s": ("1/s", "higher"),
    "permuton.self_s": ("s", "lower"),
    "metrics.dbar_s": ("s", "lower"),
    "metrics.cut_s": ("s", "lower"),
    "metrics.self_s": ("s", "lower"),
    "serialize.write_s": ("s", "lower"),
    "serialize.bytes": ("B", "lower"),
    "svg.write_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


class ProbeError(RuntimeError):
    """A set-up probe process failed."""


def measure_setup(reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "warmup.py")],
                              capture_output=True, text=True, timeout=120, cwd=warmup.ROOT)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise ProbeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return out


def metadata() -> dict:
    root = warmup.ROOT
    rev, dirty = None, None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            rev, dirty = None, None
    src = os.path.join(warmup.SRC, "phases")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "nproc": warmup.nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in warmup.THREAD_VARS},
        "src_phases_lines": lines,
    }


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99.9/p99/p90/p75/p50 with at least ten samples beyond
    it, as (label, value)."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}", float(np.percentile(values, p))
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_reps: int = SETUP_PROBES, echo=print) -> dict:
    """One run; returns the result object (the benchmark's last output line)."""
    import phases

    warmup.warm_up(phases)
    setup = measure_setup(setup_reps)
    wl = workloads.WORKLOADS[workload](seed, tiny)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    tracer = tracing.Tracer() if trace else None
    ctx = workloads.Context(work_dir, None)
    items = wl.items()
    untraced = []
    try:
        start = time.perf_counter()
        if trace:
            # One cycle untraced, for trace.overhead_s.  It runs through ctx,
            # so its checks count; per-layer counts cover traced cycles only.
            untraced = [_run_item(item, ctx) for item in items]
            ctx.counts.clear()
            tracing.install(tracer)
            ctx.tracer = tracer
        cycle_times, first_rss_kb = _cycles(items, ctx, tracer, start, seconds)
        cycles = len(cycle_times)
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(ctx.failures)
    attempted = max(ctx.attempted, 1)
    if trace:
        values = layer_metrics(tracer, ctx, cycles)
        base = item_seconds([untraced], wl.per_cycle)
        overhead = item_seconds(cycle_times, wl.per_cycle) - base
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / base
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "item_s": item_seconds(cycle_times, wl.per_cycle),
            "peak_rss_mb": first_rss_kb / 1024.0,
        }
        units = END_TO_END
    metrics_out = {k: {"value": float(values[k]), "unit": units[k]} for k in units}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "cycles": cycles, "elapsed_s": elapsed,
        "inputs": wl.inputs(), "metadata": metadata(), "setup_probes_s": setup,
        "named": _named(wl.name, ctx, failed, attempted),
        "cycle_item_times_s": cycle_times, "untraced_cycle_item_times_s": untraced,
        "samples": ctx.samples,
        "failures": ctx.failures, "ungated": ctx.notes, "metrics": metrics_out,
    }
    _report(record, echo)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"spans": tracer.spans_doc(), "counters": tracer.totals()}, fh, default=str)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics_out}


def _run_item(item, ctx) -> float:
    """The item's timed seconds; an item that raises counts as failed and
    reports the time it ran."""
    t0 = time.perf_counter()
    try:
        return item(ctx)
    except Exception:  # an unexpected error in phases: record it and go on
        name = getattr(item, "func", item).__name__
        ctx.raised(name, {"args": [str(a) for a in getattr(item, "args", ())]})
        return time.perf_counter() - t0


def _cycles(items, ctx, tracer, start, seconds) -> tuple[list[list[float]], int]:
    """Repeat the cycle while another one is expected to end within `seconds`
    of `start` (the first always runs); returns each cycle's item times and
    the peak resident set (KiB) at the end of the first cycle."""
    t0 = time.perf_counter()
    out = []
    while True:
        times = []
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = f"c{len(out)}.i{i}"
            times.append(_run_item(item, ctx))
        out.append(times)
        if len(out) == 1:
            first_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        now = time.perf_counter()
        if now - start + (now - t0) / len(out) > seconds:
            return out, first_rss_kb


def item_seconds(cycle_times: list[list[float]], per_cycle: bool) -> float:
    if per_cycle:
        return sum(statistics.median(times) for times in zip(*cycle_times))
    return statistics.median(t for c in cycle_times for t in c)


def _named(workload: str, ctx, failed: int, attempted: int) -> list[dict]:
    """This workload's named timings, each as median, tail percentile and
    sample count, and failed_ratio."""
    rows = []
    for name, unit in workloads.NAMED[workload]:
        vals = ctx.samples.get(name, [])
        row = {"name": name, "unit": unit, "n": len(vals),
               "median": statistics.median(vals) if vals else None}
        t = tail(vals)
        if t:
            row[t[0]] = t[1]
        rows.append(row)
    rows.append({"name": "failed_ratio", "unit": "ratio", "value": failed / attempted,
                 "failed": failed, "attempted": attempted})
    return rows


def _report(record: dict, echo) -> None:
    meta = record["metadata"]
    echo(f"# perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
         f"cycles={record['cycles']} rev={meta['git_rev']} "
         f"dirty={meta['git_dirty']} nproc={meta['nproc']} python={meta['python']} "
         f"numpy={meta['numpy']} src_lines={meta['src_phases_lines']}")
    for row in record["named"]:
        extra = " ".join(f"{k}={v:.6g}" for k, v in row.items()
                         if k not in ("name", "unit", "n") and isinstance(v, (int, float)))
        count = ""
        if "n" in row:
            count = f" n={row['n']}" + ("" if row["n"] >= 20 else " (no tail percentile: n<20)")
        echo(f"#   {row['name']} [{row['unit']}] {extra}{count}")
    for k, v in record["metrics"].items():
        echo(f"#   {k} [{v['unit']}] {v['value']:.6g}")
    seen = {}
    for f in record["failures"]:
        key = json.dumps([f["op"], f["inputs"], f["failures"]], default=str)
        seen[key] = seen.get(key, 0) + 1
    for key, times in seen.items():
        op, inputs, fails = json.loads(key)
        echo(f"# FAILED x{times} {op} {json.dumps(inputs)}: {fails}")
    for k, v in record["ungated"].items():
        if k not in ("kmeans_blocks", "boundary_samples"):
            echo(f"# ungated {k}: {_summarize(v)}")
    edges = {}
    for b in record["ungated"].get("boundary_samples", []):
        key = json.dumps(b)
        edges[key] = edges.get(key, 0) + 1
    for key, times in edges.items():
        echo(f"# ungated known defect x{times}, sample on a window edge: {key}")
    blocks = record["ungated"].get("kmeans_blocks")
    if blocks:
        arr = np.array([sorted(b) for b in blocks if len(b) == 4])
        if arr.size:
            echo(f"# ungated kmeans block values (sorted, mean over {len(arr)} samples): "
                 f"{np.round(arr.mean(axis=0), 4).tolist()}")


def _summarize(values: list) -> str:
    if all(isinstance(v, bool) for v in values):
        return f"{sum(values)} of {len(values)} true"
    if all(isinstance(v, (int, float)) for v in values):
        return (f"n={len(values)} min={min(values):.6g} median={statistics.median(values):.6g} "
                f"max={max(values):.6g}")
    return str(sorted(set(map(str, values))))


# ---------------------------------------------------------------------------
# per-layer metrics from spans and counters


def layer_metrics(tracer, ctx, cycles: int) -> dict:
    spans = tracer.spans
    totals = tracer.totals()
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur(s) for s in named(name))

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(key):
        return totals.get(key, [0, 0.0])[0]

    def secs(key):
        return totals.get(key, [0, 0.0])[1]

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".")[0]
        kids = children.get(s["id"], [])
        covered = _covered(s, kids)
        same = [k for k in kids if k["thread"] == s["thread"]]
        foreign_hot = sum(v - sum(k["hot"].get(lay, 0.0) for k in same)
                          for lay, v in s["hot"].items() if lay != layer)
        self_by_layer[layer] += max(0.0, dur(s) - covered - foreign_hot)

    c = max(cycles, 1)
    out = dict.fromkeys(PER_LAYER, 0.0)
    maxi = named("optimizer.maximize_entropy")
    out["optimizer.maximize_calls"] = len(maxi) / c
    for m in range(1, 7):
        out[f"optimizer.m{m}_s"] = sum(dur(s) for s in maxi if s["attrs"]["m"] == m) / c
    solves = named("optimizer.constrained_entropy")
    waste = sum(dur(k) for s in solves for k in children.get(s["id"], [])
                if k["name"] == "optimizer.maximize_entropy" and k["attrs"]["m"] > s["attrs"]["m"])
    out["optimizer.escalation_waste"] = ratio(waste, sum(dur(s) for s in solves))
    out["optimizer.self_s"] = self_by_layer["optimizer"] / c
    out["gradients.value_calls"] = calls("gradients.value") / c
    out["gradients.grad_calls"] = calls("gradients.grad") / c
    out["gradients.generic_calls"] = (calls("gradients.value.subset")
                                      + calls("gradients.grad.subset")) / c
    out["gradients.busy_s"] = (secs("gradients.value") + secs("gradients.grad")) / c
    out["graphon.canonicalize_calls"] = calls("graphon.canonicalize") / c
    out["graphon.density_calls"] = calls("graphon.density") / c
    out["graphon.busy_s"] = (secs("graphon.canonicalize") + secs("graphon.density")) / c

    cells = [s for s in solves if s["attrs"].get("cell")]
    out["scan.cell_s"] = med([dur(s) for s in cells])
    out["scan.warm_seeds"] = ratio(sum(s["attrs"]["seeds"] for s in cells), len(cells))
    out["scan.failed_cells"] = ctx.counts.get("scan.failed_cells", 0) / c
    out["scan.csv_s"] = total("scan.to_csv") / c
    scans = named("scan.phase_scan")
    out["scan.pool_efficiency"] = ratio(sum(s["cpu_s"] for s in cells),
                                        sum(dur(s) * s["attrs"]["threads"] for s in scans))
    out["scan.self_s"] = self_by_layer["scan"] / c

    chains = named("sampler.sample_constrained")
    proposals = sum(s["attrs"]["proposals"] for s in chains)
    out["sampler.proposals"] = proposals / c
    out["sampler.proposal_us"] = 1e6 * ratio(sum(s["cpu_s"] for s in chains), proposals)
    out["sampler.acceptance"] = ratio(
        sum(s["attrs"]["acceptance"] * s["attrs"]["proposals"] for s in chains), proposals)
    out["sampler.stalled_chains"] = sum(bool(s["attrs"]["stalled"]) for s in chains) / c
    out["sampler.boundary_samples"] = ctx.counts.get("sampler.boundary_samples", 0) / c
    out["sampler.chain_s"] = med([dur(s) for s in chains])
    out["sampler.kmeans_s"] = total("sampler.estimate_block_structure") / c
    enums = named("sampler.enumerate_Z")
    out["sampler.enum_graphs_per_s"] = ratio(
        sum(2 ** (s["attrs"]["n"] * (s["attrs"]["n"] - 1) // 2) for s in enums), total("sampler.enumerate_Z"))
    out["sampler.self_s"] = self_by_layer["sampler"] / c
    samples = [s for s in named("cli.main") if s["attrs"]["sub"] == "sample"]
    out["cli.pool_efficiency"] = ratio(
        sum(k["cpu_s"] for s in samples for k in children.get(s["id"], [])
            if k["name"] == "sampler.sample_constrained"),
        sum(dur(s) * min(s["attrs"]["threads"], len(children.get(s["id"], []))) for s in samples))
    out["cli.self_s"] = self_by_layer["cli"] / c

    psolves = named("permuton.maximize_permuton_entropy")
    out["permuton.solve_s"] = med([dur(s) for s in psolves])
    out["permuton.feasible_ratio"] = ratio(sum(s["attrs"]["feasible"] for s in psolves), len(psolves))
    out["permuton.projections"] = calls("permuton.projection") / c
    counts = named("permuton.count_constrained_perms")
    out["permuton.count_s"] = med([dur(s) for s in counts])
    out["permuton.perms_per_s"] = ratio(sum(s["attrs"]["perms"] for s in counts),
                                        total("permuton.count_constrained_perms"))
    out["permuton.self_s"] = self_by_layer["permuton"] / c
    out["metrics.dbar_s"] = total("metrics.dbar_distance") / c
    out["metrics.cut_s"] = total("metrics.cut_distance_upper") / c
    out["metrics.self_s"] = self_by_layer["metrics"] / c
    writes = named("serialize.save_finite_graph") + named("serialize.write_json")
    out["serialize.write_s"] = sum(dur(s) for s in writes) / c
    out["serialize.bytes"] = sum(s["attrs"].get("bytes", 0) for s in writes) / c
    out["svg.write_s"] = total("svg.to_svg") / c
    out["trace.spans"] = len(spans) / c
    return out


def _covered(span: dict, kids: list[dict]) -> float:
    """Length of the union of the children's intervals within the span."""
    ivs = sorted((max(k["start"], span["start"]), min(k["end"], span["end"])) for k in kids)
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered
