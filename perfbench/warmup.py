"""Import `phases` from this checkout's `src/` and fill its caches.

Run as a script, this is one set-up probe: the parent process times it from
process start to exit, which is the `setup_s` metric.  The benchmark's main
process calls the same `warm_up()` before it times any work, so no timed
operation pays for einsum-path or lru-cache misses.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingSourceError(RuntimeError):
    """The checkout holds no `src/phases` package to benchmark."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc, defaulting to 1 (every array here is
    small), before numpy loads; unset PHASES_THREADS so the CLI resolves its
    own default thread count."""
    cap = nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), cap)) if cur.isdigit() and int(cur) > 0 else "1"
    os.environ.pop("PHASES_THREADS", None)


def import_phases():
    """Import the `phases` package from `<root>/src`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "phases", "__init__.py")):
        raise MissingSourceError(f"no phases package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import phases

    where = os.path.dirname(os.path.abspath(phases.__file__))
    if where != os.path.join(SRC, "phases"):
        raise MissingSourceError(f"phases was imported from {where}, not {SRC}")
    return phases


def warm_up(phases) -> float:
    """One cheap call into each layer; returns a checksum so nothing is
    skipped."""
    from phases.graphon import SubgraphPattern
    from phases.optimizer import OptimizerOptions
    from phases.permuton import PermutonOptimizerOptions, StarPattern

    q1 = phases.reference_construction(0.4, 0.05)
    q2 = phases.reference_construction(0.5, 0.15)
    total = float(phases.dbar_distance(q1, q2)) + phases.cut_distance_upper(q1, q2)
    res = phases.maximize_entropy(
        phases.ConstraintVector.edge_triangle(0.4, 0.05),
        2,
        OptimizerOptions(n_starts=1, max_outer=1, max_inner=5),
    )
    total += res.entropy
    total += phases.subgraph_density(q1, SubgraphPattern.signed_square())
    perm = phases.maximize_permuton_entropy(
        [(StarPattern.parse("12"), 0.5)],
        20,
        PermutonOptimizerOptions(n_starts=1, max_outer=1, max_inner=1),
    )
    total += perm.entropy
    total += phases.count_constrained_perms(4, [(StarPattern.parse("12"), 0.5)], 0.1).count
    return total


if __name__ == "__main__":
    try:
        warm_up(import_phases())
    except MissingSourceError as exc:
        print(f"warmup: {exc}", file=sys.stderr)
        sys.exit(2)
