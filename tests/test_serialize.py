import json

import numpy as np
import pytest

from phases.graphon import FiniteGraph, StepGraphon, SubgraphPattern
from phases.permuton import GridPermuton, Permutation, project_uniform_marginals
from phases.serialize import (
    FileFormatError,
    load_finite_graph,
    load_grid_permuton,
    load_pattern,
    load_permutation,
    load_step_graphon,
    save_finite_graph,
    save_grid_permuton,
    save_permutation,
    save_step_graphon,
)
from conftest import random_step_graphon


def test_graphon_round_trip(tmp_path, rng):
    q = random_step_graphon(rng, 3)
    path = tmp_path / "q.json"
    save_step_graphon(q, str(path))
    q2 = load_step_graphon(str(path))
    assert np.array_equal(q.masses, q2.masses)
    assert np.array_equal(q.values, q2.values)


def test_graphon_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"masses": [1.0]}))
    with pytest.raises(FileFormatError, match="values"):
        load_step_graphon(str(path))


def test_graphon_invalid_json_names_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError, match="broken.json"):
        load_step_graphon(str(path))


def test_finite_graph_edge_list_round_trip(tmp_path):
    g = FiniteGraph.cycle(6)
    path = tmp_path / "g.txt"
    save_finite_graph(g, str(path))
    g2 = load_finite_graph(str(path))
    assert np.array_equal(g.adjacency, g2.adjacency)


@pytest.mark.parametrize("n, p", [(1, 0.0), (5, 0.0), (7, 1.0), (12, 0.3), (200, 0.5)])
def test_finite_graph_edge_list_is_one_line_per_edge(tmp_path, rng, n, p):
    # the format the sample files have always had: "u v" for u < v, row by row
    adj = np.triu((rng.random((n, n)) < p).astype(np.int32), 1)
    g = FiniteGraph(adj + adj.T)
    path = tmp_path / "g.txt"
    save_finite_graph(g, str(path))
    assert path.read_text() == "".join(f"{u} {v}\n" for u, v in g.edge_list())


def test_finite_graph_json_adjacency(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"adjacency": [[0, 1], [1, 0]]}))
    g = load_finite_graph(str(path))
    assert g.n == 2 and g.edge_count == 1


def test_finite_graph_bad_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n2\n")
    with pytest.raises(FileFormatError, match="line 2"):
        load_finite_graph(str(path))


def test_pattern_names_and_files(tmp_path):
    assert load_pattern("triangle") == SubgraphPattern.triangle()
    assert load_pattern("kstar:3") == SubgraphPattern.star(3)
    assert load_pattern("t1") == SubgraphPattern.signed_two_star()
    path = tmp_path / "pat.json"
    path.write_text(json.dumps({"k": 4, "edges": [[1, 2]], "absent": [[3, 4]]}))
    pat = load_pattern(str(path))
    assert pat == SubgraphPattern(4, ((1, 2),), ((3, 4),))
    with pytest.raises(ValueError, match="unknown pattern"):
        load_pattern("nonsense")


def test_permutation_round_trip(tmp_path):
    pi = Permutation((3, 1, 4, 2))
    path = tmp_path / "pi.txt"
    save_permutation(pi, str(path))
    assert load_permutation(str(path)) == pi


def test_permutation_invalid(tmp_path):
    path = tmp_path / "pi.txt"
    path.write_text("1 1 2\n")
    with pytest.raises(FileFormatError, match="values"):
        load_permutation(str(path))


def test_grid_permuton_round_trip(tmp_path, rng):
    g = GridPermuton(project_uniform_marginals(rng.uniform(0.5, 1.5, (6, 6))))
    path = tmp_path / "perm.json"
    save_grid_permuton(g, str(path))
    g2 = load_grid_permuton(str(path))
    assert np.array_equal(g.g, g2.g)


def test_grid_permuton_k_mismatch(tmp_path):
    path = tmp_path / "perm.json"
    path.write_text(json.dumps({"k": 3, "g": [[2.0, 0.0], [0.0, 2.0]]}))
    with pytest.raises(FileFormatError, match="g"):
        load_grid_permuton(str(path))


def _result_records():
    """One fixed instance of each result record, with the JSON that record's
    hand-written to_dict gave, written out from its attributes."""
    from phases.graphon import ConstraintVector
    from phases.metrics import dbar_distance
    from phases.optimizer import OptimizerResult, SignedMaxResult, reference_construction
    from phases.permuton import PermutonOptimizerResult, StarPattern, count_constrained_perms
    from phases.sampler import enumerate_Z

    q = StepGraphon.bipodal(0.5, 0.15898577358247695, 0.15898577358247695, 0.6410142264175231)
    opt = OptimizerResult(graphon=q, entropy=0.2727041598259955, residuals=(1.5e-10, 0.0),
                          podality=2, symmetric_bipodal=True, constant=False,
                          multistart_spread=2.5e-7, feasible=True, m=2,
                          insertion_gain=4.4e-16, escalation_stop="certified")
    signed = SignedMaxResult(value=0.125, graphon=StepGraphon([0.5, 0.5], [[1.0, 0.0], [0.0, 0.0]]),
                             residual=0.0, feasible=True, m=2)
    perm = PermutonOptimizerResult(permuton=GridPermuton([[2.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]),
                                   entropy=-0.25, residuals=(3e-9,), feasible=True, degenerate=False)
    count = count_constrained_perms(5, [(StarPattern.parse("12"), 0.5)], 0.2)
    enum = enumerate_Z(4, ConstraintVector.edge_triangle(0.5, 0.1, 0.3))
    dbar = dbar_distance(reference_construction(0.4, 0.03), reference_construction(0.4, 0.08), 3)
    return [
        (opt, {
            "graphon": opt.graphon.to_dict(),
            "entropy": opt.entropy,
            "residuals": list(opt.residuals),
            "podality": opt.podality,
            "flags": {"symmetric_bipodal": opt.symmetric_bipodal, "constant": opt.constant},
            "multistart_spread": opt.multistart_spread,
            "feasible": opt.feasible,
            "m": opt.m,
            "insertion_gain": opt.insertion_gain,
            "escalation_stop": opt.escalation_stop,
        }),
        (signed, {
            "value": signed.value,
            "graphon": signed.graphon.to_dict(),
            "residual": signed.residual,
            "feasible": signed.feasible,
            "m": signed.m,
        }),
        (perm, {
            "permuton": perm.permuton.to_dict(),
            "entropy": perm.entropy,
            "residuals": list(perm.residuals),
            "feasible": perm.feasible,
            "degenerate": perm.degenerate,
        }),
        (count, {
            "n": count.n,
            "count": count.count,
            "total": count.total,
            "log_normalized": count.log_normalized,
            "constraints": [[p, t] for p, t in count.constraints],
            "delta": count.delta,
        }),
        (enum, {
            "n": enum.n,
            "z": enum.z,
            "total": enum.total,
            "log_normalized": enum.log_normalized,
            "histogram": [list(h) for h in enum.histogram],
            "constraints": [[p, t] for p, t in enum.constraints],
            "delta": enum.delta,
        }),
        (dbar, {
            "value": dbar.value,
            "max_order": dbar.max_order,
            "graph_count": dbar.graph_count,
            "tail_bound": dbar.tail_bound,
        }),
    ]


@pytest.mark.parametrize("index", range(6))
def test_result_record_json_is_its_fields(index):
    record, expected = _result_records()[index]
    assert record.to_dict() == expected
    assert json.dumps(record.to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)
