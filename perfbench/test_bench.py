"""Tests of the benchmark itself (not collected by the package's suite):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import warmup  # noqa: E402

phases = warmup.import_phases()

import gate  # noqa: E402
import harness  # noqa: E402
from phases.graphon import ConstraintVector, FiniteGraph, graphon_entropy  # noqa: E402
from phases.optimizer import reference_construction  # noqa: E402
from phases.permuton import StarPattern, count_constrained_perms  # noqa: E402
from phases.sampler import ChainConfig, enumerate_Z, sample_constrained  # noqa: E402

with open(os.path.join(warmup.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def tiny_run(workload, trace, seed=3):
    return harness.run(workload, seed, 0.01, trace, tiny=True, setup_reps=1, echo=lambda *_: None)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


COUNTS = {
    "optimize": ["gradients.value_calls", "gradients.grad_calls", "optimizer.maximize_calls"],
    "finite-size": ["sampler.proposals"],
    "generic": ["permuton.projections", "gradients.value_calls", "gradients.generic_calls"],
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_traced_counts_repeat_exactly(workload):
    first, second = tiny_run(workload, True, seed=7), tiny_run(workload, True, seed=7)
    for name in COUNTS[workload]:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_gate_flags_a_graphon_with_the_wrong_triangle_density():
    q = reference_construction(0.4, 0.05)
    assert gate.check_solution(0.4, 0.05, q, graphon_entropy(q), True, 2, 1e-8) == []
    fails = gate.check_solution(0.4, 0.06, q, graphon_entropy(q), True, 2, 1e-8)
    assert any("triangle residual" in f for f in fails)


def test_gate_flags_wrong_verdicts_and_closed_forms():
    assert gate.check_solution(0.3, 0.2, None, 0.0, True, 0, 1e-8)  # infeasible target
    q = phases.StepGraphon.constant(0.45)
    assert gate.check_solution(0.45, 0.45**3, q, graphon_entropy(q), True, 1, 1e-8) == []
    assert gate.check_solution(0.45, 0.45**3, q, graphon_entropy(q) - 1e-3, True, 1, 1e-8)
    half = reference_construction(0.5, 0.05)
    assert gate.check_solution(0.5, 0.05, half, graphon_entropy(half), True, 2, 1e-8) == []
    skew = phases.StepGraphon([0.4, 0.6], half.values)
    assert gate.check_solution(0.5, 0.05, skew, graphon_entropy(half), True, 2, 1.0)


def test_gate_flags_a_sample_outside_its_window():
    cons = ConstraintVector.edge_triangle(0.5, 0.1, 0.05)
    run = sample_constrained(ChainConfig(n=30, constraints=cons, seed=1, burn_in=200,
                                         sample_interval=10, n_samples=1))
    assert gate.check_sample(run.graphs[0], 0.5, 0.1, 0.05) == ([], [])
    fails, edge = gate.check_sample(FiniteGraph.complete(30), 0.5, 0.1, 0.05)
    assert fails and not edge


def test_gate_reports_a_sample_on_a_window_edge_apart_from_failures():
    # K4 minus an edge: edge density 5/6, triangle density exactly 1/2
    g = FiniteGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    fails, edge = gate.check_sample(g, 0.8, 0.45, 0.05)
    assert fails == [] and len(edge) == 1 and "triangle density 1/2" in edge[0]
    assert gate.check_sample(g, 0.8, 0.44, 0.05)[0]


def test_gate_flags_a_histogram_with_one_count_changed():
    rep = enumerate_Z(5, ConstraintVector.edge_triangle(0.5, 0.1, 0.05))
    assert gate.check_enumeration(5, 0.5, 0.1, 0.05, rep.z, rep.histogram) == []
    hist = list(rep.histogram)
    e, t, c = hist[len(hist) // 2]
    hist[len(hist) // 2] = (e, t, c + 1)
    assert gate.check_enumeration(5, 0.5, 0.1, 0.05, rep.z, hist)
    assert gate.check_enumeration(5, 0.5, 0.1, 0.05, rep.z + 1, rep.histogram)


def test_gate_flags_sweep_permuton_count_and_csv_corruptions(tmp_path):
    assert gate.check_signed_sweep([0.125, 0.15], [True, True]) == []
    assert gate.check_signed_sweep([0.15, 0.125], [True, True])
    assert gate.check_signed_sweep([0.125, 0.2], [True, True])
    assert gate.check_permuton(np.array([[1.5, 0.5], [0.5, 1.5]]), [], 1e-8) == []
    assert gate.check_permuton(np.array([[1.6, 0.5], [0.5, 1.5]]), [], 1e-8)
    rep = count_constrained_perms(6, [(StarPattern.parse("12"), 0.4)], 0.1)
    assert gate.check_pattern12_count(6, 0.4, 0.1, rep.count) == []
    assert gate.check_pattern12_count(6, 0.4, 0.1, rep.count + 1)
    path = tmp_path / "scan.csv"
    path.write_text("eps,tau\n0.10000000000000001,0.5\n")
    assert gate.check_csv_roundtrip(str(path), 1) == []
    assert gate.check_csv_roundtrip(str(path), 2)
    path.write_text("eps,tau\n0.1000,0.5\n")
    assert gate.check_csv_roundtrip(str(path), 1)


def test_mahonian_numbers_match_brute_force():
    for n in range(1, 7):
        counts = [0] * (n * (n - 1) // 2 + 1)
        for p in itertools.permutations(range(n)):
            counts[sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))] += 1
        assert gate.mahonian(n) == counts


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(warmup.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "optimize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
