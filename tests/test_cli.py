import json
import math
import os
import re
import shutil

import numpy as np
import pytest

from phases import cli, scan
from phases.cli import build_parser, main
from phases.graphon import DEFAULT_VERTEX_CAP, StepGraphon, SubgraphPattern
from phases.optimizer import OptimizerOptions
from phases.permuton import GridPermuton, PermutonOptimizerOptions
from phases.serialize import load_finite_graph, load_step_graphon
from phases.svg import NAN_COLOR


def run(tmp_path, *args) -> int:
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(args))
    finally:
        os.chdir(cwd)


def test_reference_and_density(tmp_path, capsys):
    assert run(tmp_path, "reference", "--eps", "0.5", "--tau", "0.1",
               "--out", str(tmp_path / "ref.json")) == 0
    q = load_step_graphon(str(tmp_path / "ref.json"))
    assert q.m == 2
    assert run(tmp_path, "density", "--graphon", str(tmp_path / "ref.json"),
               "--pattern", "triangle") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["density"] == pytest.approx(0.1, abs=1e-12)


def test_density_with_raised_vertex_cap(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(StepGraphon.constant(0.5).to_dict()))
    assert run(tmp_path, "density", "--graphon", str(path), "--pattern", "cycle:7",
               "--vertex-cap", "7") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["density"] == pytest.approx(0.5**7, abs=1e-15)


def test_entropy_command(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(StepGraphon.constant(0.5).to_dict()))
    assert run(tmp_path, "entropy", "--graphon", str(path)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entropy"] == pytest.approx(math.log(2) / 2, abs=1e-12)


def test_optimize_feasible_and_infeasible(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code = run(tmp_path, "optimize", "--eps", "0.5", "--tau", "0.1",
               "--starts", "6", "--m-max", "3", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["feasible"] and doc["podality"] == 2
    assert doc["m"] == 2 and abs(doc["insertion_gain"]) < 1e-7  # the certificate stopped at m = 2
    assert doc["escalation_stop"] == "certified"
    vals = doc["graphon"]["values"]
    assert vals[0][0] == pytest.approx(0.2076, abs=1e-3)
    # the emitted graphon re-validates under the type invariants
    StepGraphon(doc["graphon"]["masses"], doc["graphon"]["values"])
    code = run(tmp_path, "optimize", "--eps", "0.3", "--tau", "0.17",
               "--starts", "4", "--m-max", "3", "--out", str(tmp_path / "inf.json"))
    assert code == 2
    doc = json.loads((tmp_path / "inf.json").read_text())
    # the certificate on the residual stopped at m = 2; the gain stays entropy's
    assert doc["insertion_gain"] is None and doc["escalation_stop"] == "certified"


def test_m_zero_is_an_ansatz_size_not_no_size(tmp_path, capsys):
    # --m 0 is a podality outside 1..M_CAP on the entropy path and outside
    # 1..12 on the signed path, not an absent --m
    assert run(tmp_path, "optimize", "--eps", "0.4", "--tau", "0.05", "--m", "0",
               "--out", str(tmp_path / "e.json")) == 1
    assert "1..16" in capsys.readouterr().err
    assert run(tmp_path, "optimize", "--signed-objective", "t1", "--m", "0",
               "--out", str(tmp_path / "s.json")) == 1
    assert "1..12" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["optimize", "scan"])
@pytest.mark.parametrize("m_max", ["0", "17"])
def test_m_max_outside_the_podality_range_is_a_usage_error(tmp_path, capsys, sub, m_max):
    args = ["--eps", "0.4", "--tau", "0.05"] if sub == "optimize" else ["--grid", "2x1"]
    assert run(tmp_path, sub, *args, "--m-max", m_max, "--out", str(tmp_path / "o")) == 1
    assert "m_max must lie in 1..16" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, message", [
    (["optimize", "--eps", "0.4", "--tau", "0.05", "--tol", "-1", "--m-max", "2", "--starts", "2"],
     "feasibility_tol must be positive and finite"),
    (["optimize", "--eps", "0.4", "--tau", "0.05", "--starts", "-3"], "n_starts must be an integer >= 1"),
    (["perm-optimize", "--constraint", "12=0.4", "--starts", "0"], "n_starts must be an integer >= 1"),
    (["perm-optimize", "--constraint", "12=0.4", "--starts", "-2"], "n_starts must be an integer >= 1"),
    (["perm-optimize", "--constraint", "12=0.4", "--resolution", "0"], "resolution must lie in 1..40"),
])
def test_option_outside_its_range_is_a_usage_error(tmp_path, capsys, args, message):
    # the first died with a StopIteration traceback, the next three ran
    assert run(tmp_path, *args, "--out", str(tmp_path / "o")) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_scan_pattern_above_vertex_cap_is_a_usage_error(tmp_path, capsys):
    # as through optimize: exit 1 with the cap, not a map of failed cells
    csv_path = tmp_path / "s.csv"
    assert run(tmp_path, "scan", "--model", "edge-kstar:6", "--grid", "2x1",
               "--out", str(csv_path)) == 1
    assert "pattern has 7 vertices, cap is 6" in capsys.readouterr().err
    assert not csv_path.exists()
    assert run(tmp_path, "optimize", "--model", "edge-kstar:6", "--eps", "0.4", "--tau", "0.05",
               "--out", str(tmp_path / "o.json")) == 1
    assert "pattern has 7 vertices, cap is 6" in capsys.readouterr().err


def test_signed_objective_needs_no_entropy_constraints(tmp_path):
    # the 2-block staircase: t1 = (m^2 - 1) / (6 m^2) = 1/8 with t2 = 0
    out = tmp_path / "signed.json"
    assert run(tmp_path, "optimize", "--signed-objective", "t1", "--m", "2",
               "--starts", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["m"] == 2 and doc["feasible"]
    assert doc["value"] == pytest.approx(0.125, abs=1e-12)


def test_manifest_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(tmp_path, "optimize", "--eps", "0.45", "--tau", "0.08",
               "--starts", "5", "--m-max", "2", "--out", str(out1)) == 0
    manifest = tmp_path / "r1.json.manifest.json"
    assert manifest.exists()
    assert run(tmp_path, "optimize", "--config", str(manifest),
               "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.4, "tau": 0.05, "bogus_knob": 3}))
    code = run(tmp_path, "optimize", "--config", str(cfg))
    assert code == 1
    assert "bogus_knob" in capsys.readouterr().err


def test_usage_error_exit_code(tmp_path, capsys):
    assert run(tmp_path, "optimize") == 1  # missing --eps/--tau
    assert "eps" in capsys.readouterr().err


def test_malformed_input_names_file_and_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"masses": [1.0]}))
    code = run(tmp_path, "density", "--graphon", str(bad), "--pattern", "edge")
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.json" in err and "values" in err


def test_scan_writes_csv_and_svg(tmp_path, capsys):
    csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
    code = run(tmp_path, "scan", "--grid", "2x2",
               "--eps-min", "0.4", "--eps-max", "0.45",
               "--tau-min", "0.03", "--tau-max", "0.05",
               "--starts", "4", "--m-max", "2", "--threads", "1",
               "--out", str(csv_path), "--svg", str(svg_path))
    assert code == 0
    assert csv_path.read_text().startswith("eps,tau,")
    assert svg_path.read_text().startswith("<svg")


def test_sample_writes_edge_lists_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "chains"
    code = run(tmp_path, "sample", "--n", "16", "--eps", "0.5", "--tau", "0.125",
               "--delta", "0.05", "--samples", "2", "--burn-in", "512",
               "--interval", "256", "--out-dir", str(out_dir))
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert "samples.csv" in files and "manifest.json" in files
    sample_files = [f for f in files if f.endswith(".txt")]
    assert len(sample_files) == 2
    g = load_finite_graph(str(out_dir / sample_files[0]))
    assert g.n <= 16
    header = (out_dir / "samples.csv").read_text().splitlines()[0]
    assert header == "chain,sample,step,density_0,density_1"


def test_sample_steps_are_the_proposals_each_sample_follows(tmp_path, capsys):
    # without a burn-in the first sample follows the first proposal, not step 0
    out_dir = tmp_path / "chains"
    code = run(tmp_path, "sample", "--n", "16", "--eps", "0.5", "--tau", "0.125",
               "--delta", "0.05", "--samples", "2", "--burn-in", "0",
               "--interval", "20", "--out-dir", str(out_dir))
    assert code == 0
    rows = (out_dir / "samples.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["1", "20"]


def test_sample_without_proposals_is_a_usage_error(tmp_path, capsys):
    code = run(tmp_path, "sample", "--n", "16", "--eps", "0.5", "--tau", "0.125",
               "--delta", "0.05", "--samples", "2", "--burn-in", "0",
               "--interval", "0", "--out-dir", str(tmp_path / "chains"))
    assert code == 1
    assert "no proposals" in capsys.readouterr().err


def test_enumerate_with_histogram(tmp_path, capsys):
    hist = tmp_path / "h.csv"
    code = run(tmp_path, "enumerate", "--n", "4", "--eps", "0.5", "--tau", "0.25",
               "--delta", "0.3", "--histogram", str(hist))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 64
    lines = hist.read_text().splitlines()
    assert lines[0] == "edge_count,triangle_count,count"
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == 64


def test_perm_commands(tmp_path, capsys):
    code = run(tmp_path, "perm-count", "--n", "4", "--pattern", "12",
               "--alpha", "0.5", "--delta", "0.1")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 6
    perm = tmp_path / "pi.txt"
    perm.write_text("2 4 1 3\n")
    code = run(tmp_path, "perm-density", "--perm", str(perm), "--pattern", "12")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] == [1, 2]
    code = run(tmp_path, "perm-optimize", "--constraint", "12=0.5",
               "--resolution", "10", "--starts", "3")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] and abs(doc["entropy"]) < 1e-6


def test_cut_distance_command(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(StepGraphon.constant(0.2).to_dict()))
    b.write_text(json.dumps(StepGraphon.constant(0.7).to_dict()))
    code = run(tmp_path, "cut-distance", "--a", str(a), "--b", str(b), "--dbar",
               "--max-order", "3")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cut_distance_upper"] == pytest.approx(0.5, abs=1e-12)
    assert doc["dbar"]["value"] > 0


def test_threads_env_fallback(tmp_path, monkeypatch, capsys):
    # there is no fallback: neither PHASES_THREADS nor the CPU count reaches
    # the recorded thread count
    monkeypatch.setenv("PHASES_THREADS", "8")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    code = run(tmp_path, "perm-count", "--n", "3", "--pattern", "12",
               "--alpha", "0.5", "--delta", "0.4")
    assert code == 0
    manifest = json.loads((tmp_path / "phases-manifest.json").read_text())
    assert manifest["options"]["threads"] == 1
    assert manifest["subcommand"] == "perm-count"
    assert manifest["version"]


SCAN_TILE = ("--eps-min", "0.4", "--eps-max", "0.44", "--tau-min", "0.03",
             "--tau-max", "0.05", "--starts", "4", "--m-max", "2")


def test_scan_output_does_not_depend_on_threads(tmp_path, capsys):
    csvs = {}
    for threads in ("1", "2"):
        csvs[threads] = tmp_path / f"t{threads}.csv"
        assert run(tmp_path, "scan", "--grid", "2x2", *SCAN_TILE,
                   "--threads", threads, "--out", str(csvs[threads])) == 0
    assert csvs["1"].read_bytes() == csvs["2"].read_bytes()
    # a manifest that records two threads replays to the same bytes
    manifest = tmp_path / "t2.csv.manifest.json"
    assert json.loads(manifest.read_text())["options"]["threads"] == 2
    replay = tmp_path / "replay.csv"
    assert run(tmp_path, "scan", "--config", str(manifest), "--out", str(replay)) == 0
    assert replay.read_bytes() == csvs["1"].read_bytes()


def test_sample_output_does_not_depend_on_threads(tmp_path, capsys):
    dirs = {}
    for threads in ("1", "2"):
        dirs[threads] = tmp_path / f"t{threads}"
        assert run(tmp_path, "sample", "--n", "12", "--eps", "0.5", "--tau", "0.125",
                   "--delta", "0.05", "--samples", "2", "--burn-in", "200",
                   "--interval", "100", "--chains", "2", "--threads", threads,
                   "--out-dir", str(dirs[threads])) == 0
    names = sorted(f for f in os.listdir(dirs["1"]) if f != "manifest.json")
    assert "samples.csv" in names and len(names) == 5
    assert names == sorted(f for f in os.listdir(dirs["2"]) if f != "manifest.json")
    for name in names:
        assert (dirs["1"] / name).read_bytes() == (dirs["2"] / name).read_bytes()


def test_sample_manifest_replays_through_config_alone(tmp_path, capsys):
    # --n and --out-dir come from the manifest; argparse used to reject the
    # call before the manifest was read
    first = tmp_path / "first"
    assert run(tmp_path, "sample", "--n", "12", "--eps", "0.5", "--tau", "0.125",
               "--delta", "0.05", "--samples", "2", "--burn-in", "200",
               "--interval", "100", "--chains", "2", "--out-dir", str(first)) == 0
    names = sorted(f for f in os.listdir(first) if f != "manifest.json")
    assert "samples.csv" in names and len(names) == 5
    written = {name: (first / name).read_bytes() for name in names}
    manifest = tmp_path / "sample-manifest.json"
    manifest.write_bytes((first / "manifest.json").read_bytes())
    for name in names:
        (first / name).unlink()
    assert run(tmp_path, "sample", "--config", str(manifest)) == 0
    again = tmp_path / "again"
    assert run(tmp_path, "sample", "--config", str(manifest), "--out-dir", str(again)) == 0
    for out_dir in (first, again):
        assert sorted(f for f in os.listdir(out_dir) if f != "manifest.json") == names
        for name in names:
            assert (out_dir / name).read_bytes() == written[name]


def test_reference_manifest_replays_through_config_alone(tmp_path, capsys):
    out = tmp_path / "ref.json"
    assert run(tmp_path, "reference", "--eps", "0.5", "--tau", "0.1", "--out", str(out)) == 0
    first = out.read_bytes()
    out.unlink()
    assert run(tmp_path, "reference", "--config", str(tmp_path / "ref.json.manifest.json")) == 0
    assert out.read_bytes() == first


def test_missing_required_options_are_named(tmp_path, capsys):
    assert run(tmp_path, "sample", "--eps", "0.5", "--tau", "0.125") == 1
    err = capsys.readouterr().err
    assert "required" in err and "--n" in err and "--out-dir" in err
    assert run(tmp_path, "reference", "--eps", "0.5") == 1
    err = capsys.readouterr().err
    assert "--tau" in err and "--eps" not in err


def test_scan_defaults_warm_start_from_both_neighbours(tmp_path, monkeypatch, capsys):
    # at the CLI defaults (no --threads), every cell past the first row and
    # column is seeded from its left and its lower neighbour
    solve = scan.constrained_entropy
    seeds = {}

    def recording(cons, opts, extra_seeds=()):
        seeds[tuple(t for _, t in cons.terms)] = len(extra_seeds)
        return solve(cons, opts, extra_seeds=extra_seeds)

    monkeypatch.setattr(scan, "constrained_entropy", recording)
    assert run(tmp_path, "scan", "--grid", "3x2", *SCAN_TILE) == 0
    xs, ys = np.linspace(0.4, 0.44, 3), np.linspace(0.03, 0.05, 2)
    assert len(seeds) == 6
    for ix, x in enumerate(xs):
        for iy, y in enumerate(ys):
            assert seeds[(float(x), float(y))] == (ix > 0) + (iy > 0)


def test_cli_defaults_are_the_library_defaults():
    subs = build_parser().subcommands

    def default(sub, dest):
        return subs[sub].get_default(dest)

    lib, perm = OptimizerOptions(), PermutonOptimizerOptions()
    assert default("optimize", "starts") == lib.n_starts
    assert default("optimize", "m_max") == lib.m_max
    assert default("optimize", "tol") == default("scan", "tol") == lib.feasibility_tol
    assert default("optimize", "seed") == lib.seed == perm.seed
    assert (default("scan", "starts"), default("scan", "m_max")) == (6, 3)
    assert default("perm-optimize", "starts") == perm.n_starts
    assert default("density", "vertex_cap") == DEFAULT_VERTEX_CAP
    assert default("scan", "spike_factor") == scan.SPIKE_FACTOR
    assert default("scan", "svg_field") in scan.SVG_FIELDS


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_svg_field_is_refused_before_any_cell(tmp_path, monkeypatch, capsys, source):
    # it was refused only after every cell was solved and the CSV written
    solved = []
    monkeypatch.setattr(scan, "constrained_entropy", lambda *a, **k: solved.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"svg_field": "entrpy"}))
    field = ["--svg-field", "entrpy"] if source == "flag" else ["--config", str(cfg)]
    csv_path = tmp_path / "late.csv"
    assert run(tmp_path, "scan", "--grid", "3x3", "--out", str(csv_path),
               "--svg", str(tmp_path / "late.svg"), *field) == 1
    assert "argument --svg-field: invalid choice: 'entrpy'" in capsys.readouterr().err
    assert solved == [] and not csv_path.exists()
    assert not (tmp_path / "late.csv.manifest.json").exists()


@pytest.mark.parametrize("chains", ["0", "-2"])
def test_chains_below_one_is_a_usage_error(tmp_path, capsys, chains):
    # 0 ran nothing and exited 0; -2 died in numpy
    out_dir = tmp_path / "chains"
    assert run(tmp_path, "sample", "--n", "12", "--eps", "0.5", "--tau", "0.125",
               "--chains", chains, "--out-dir", str(out_dir)) == 1
    assert f"argument --chains: must be at least 1, got {chains}" in capsys.readouterr().err
    assert not out_dir.exists()  # neither samples.csv nor a manifest


@pytest.mark.parametrize("sub, args", [
    ("sample", ["--n", "12", "--eps", "0.5", "--tau", "0.125", "--out-dir", "s"]),
    ("optimize", ["--eps", "0.4", "--tau", "0.05"]),
    ("perm-optimize", ["--constraint", "12=0.4"]),
])
def test_negative_seed_is_refused_before_the_manifest(tmp_path, capsys, sub, args):
    # sample exited 1 with numpy's "expected non-negative integer", naming no
    # flag; optimize and perm-optimize refused it after writing the manifest
    assert run(tmp_path, sub, *args, "--seed", "-1", "--out", "o.json") == 1
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", ["2y2", "2x", "0x2", "2x2x2"])
def test_malformed_grid_is_refused_before_the_manifest(tmp_path, capsys, grid):
    # 2y2 failed in int() with a message naming neither the flag nor the form
    assert run(tmp_path, "scan", "--grid", grid, "--out", "g.csv") == 1
    assert f"argument --grid: expected NXxNY cells, each 1..200, such as 20x20; got {grid!r}" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sub, args", [
    ("optimize", ["--eps", "0.4", "--tau", "0.05"]),
    ("scan", ["--grid", "2x1"]),
])
@pytest.mark.parametrize("model", ["edge-cycle", "edge-kstar:0", "edge-kstar:2:3"])
def test_unknown_model_is_refused_before_the_manifest(tmp_path, capsys, sub, args, model):
    assert run(tmp_path, sub, *args, "--model", model, "--out", "m.json") == 1
    assert f"argument --model: expected edge-triangle or edge-kstar:K with K >= 1; got {model!r}" \
        in capsys.readouterr().err
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("field", ["podality", "transition"])
def test_scan_draws_each_svg_field(tmp_path, capsys, field):
    svg = tmp_path / "s.svg"
    assert run(tmp_path, "scan", "--grid", "2x1", *SCAN_TILE, "--svg", str(svg),
               "--svg-field", field) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and f"edge-triangle: {field}</text>" in text
    assert text.count("<rect") == 1 + 2 + 24  # background, the cells, the legend


CONSTRAINTS = [{"pattern": "edge", "target": 0.5},
               {"pattern": SubgraphPattern.triangle().to_dict(), "target": 0.125}]


@pytest.mark.parametrize("sub, args", [
    ("optimize", ["--starts", "4", "--m-max", "2"]),
    ("enumerate", ["--n", "5", "--delta", "0.2"]),
    ("sample", ["--n", "12", "--delta", "0.05", "--samples", "2", "--burn-in", "100",
                "--interval", "50", "--out-dir", "chains"]),
])
def test_constraints_file_reads_as_the_flags(tmp_path, capsys, sub, args):
    # one pattern by name and one as a pattern dict give what --eps/--tau give
    path = tmp_path / "cons.json"
    path.write_text(json.dumps(CONSTRAINTS))
    written = {}
    for how, flags in (("file", ["--constraints", str(path)]),
                       ("flags", ["--eps", "0.5", "--tau", "0.125"])):
        assert run(tmp_path, sub, *args, *flags, "--out", str(tmp_path / how)) == 0
        written[how] = (tmp_path / how).read_bytes()
        if sub == "sample":
            written[how] += (tmp_path / "chains" / "samples.csv").read_bytes()
    assert written["file"] == written["flags"]
    if sub == "optimize":
        assert json.loads(written["file"])["feasible"]


@pytest.mark.parametrize("entry", [{"pattern": "edge"}, "pattern target"])
def test_constraints_entry_without_target_is_refused(tmp_path, capsys, entry):
    # a string entry died with a TypeError traceback
    path = tmp_path / "cons.json"
    path.write_text(json.dumps([entry]))
    assert run(tmp_path, "optimize", "--constraints", str(path)) == 1
    err = capsys.readouterr().err
    assert "cons.json" in err and "[0]" in err and "needs pattern and target" in err


@pytest.mark.parametrize("method, tol", [("exact", 1e-12), ("montecarlo", 0.01)])
def test_perm_density_of_a_permuton_file(tmp_path, capsys, method, tol):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(GridPermuton.uniform(4).to_dict()))
    assert run(tmp_path, "perm-density", "--permuton", str(path), "--pattern", "12",
               "--method", method, "--samples", "20000") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == method and doc["pattern"] == "12"
    assert doc["density"] == pytest.approx(0.5, abs=tol)


@pytest.mark.parametrize("args, message", [
    (["--samples", "0"], "argument --samples: must be at least 1, got 0"),
    (["--samples", "-3"], "argument --samples: must be at least 1, got -3"),
    (["--method", "exakt"], "argument --method: invalid choice: 'exakt'"),
])
def test_perm_density_option_is_refused_before_the_manifest(tmp_path, capsys, args, message):
    # --samples 0 printed "density": NaN, which is not JSON, and exited 0
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(GridPermuton.uniform(4).to_dict()))
    assert run(tmp_path, "perm-density", "--permuton", str(path), "--pattern", "12",
               "--method", "montecarlo", *args, "--out", "pd.json") == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gamma.json"]


@pytest.mark.parametrize("factor", ["0", "-1", "nan", "inf"])
def test_spike_factor_that_is_not_positive_and_finite_is_a_usage_error(
        tmp_path, monkeypatch, capsys, factor):
    # -1 flagged all 4 cells of a 2x2 grid and nan none, both with exit 0
    solved = []
    monkeypatch.setattr(scan, "constrained_entropy", lambda *a, **k: solved.append(a))
    assert run(tmp_path, "scan", "--grid", "2x2", "--spike-factor", factor, "--out", "s.csv") == 1
    assert f"argument --spike-factor: must be positive and finite, got {factor}" \
        in capsys.readouterr().err
    assert solved == [] and list(tmp_path.iterdir()) == []


def test_toml_config_reads_as_the_flags(tmp_path, capsys):
    pytest.importorskip("tomllib")
    cfg = tmp_path / "cfg.toml"
    cfg.write_text('eps = 0.45\ntau = 0.08\nstarts = 5\nm_max = 2\n')
    assert run(tmp_path, "optimize", "--config", str(cfg), "--out", str(tmp_path / "t.json")) == 0
    assert run(tmp_path, "optimize", "--eps", "0.45", "--tau", "0.08", "--starts", "5",
               "--m-max", "2", "--out", str(tmp_path / "f.json")) == 0
    assert (tmp_path / "t.json").read_bytes() == (tmp_path / "f.json").read_bytes()


def test_sample_whose_repair_fails_exits_2_with_the_chain_error(tmp_path, capsys):
    out, out_dir = tmp_path / "s.json", tmp_path / "chains"
    assert run(tmp_path, "sample", "--n", "12", "--eps", "0.5", "--tau", "0.9",
               "--delta", "0.01", "--out-dir", str(out_dir), "--out", str(out)) == 2
    (chain,) = json.loads(out.read_text())["chains"]
    assert chain["chain"] == 0
    assert chain["error"].startswith("greedy repair failed to reach the constraint windows")
    assert (out_dir / "samples.csv").read_text() == "chain,sample,step,density_0,density_1\n"


def test_scan_draws_infeasible_cells_gray(tmp_path, capsys):
    # tau = 0.2 lies above eps^1.5 at eps = 0.3: no graphon reaches it
    svg = tmp_path / "s.svg"
    for field in ("entropy", "podality"):
        assert run(tmp_path, "scan", "--grid", "1x2", "--eps-min", "0.3", "--eps-max", "0.3",
                   "--tau-min", "0.05", "--tau-max", "0.2", "--starts", "2", "--m-max", "2",
                   "--svg", str(svg), "--svg-field", field) == 0
        cells = dict(re.findall(r'<rect x="70" y="(\d+)" width="12" height="12" fill="(#\w+)"/>',
                                svg.read_text()))
        # y grows downward: the upper cell is tau = 0.2
        assert cells["34"] == NAN_COLOR == "#c8c8c8"
        assert cells["46"] != "#c8c8c8"


def test_sample_refuses_a_pattern_with_absent_edges(tmp_path, capsys):
    # it was accepted, and the first count died in finite_density
    path = tmp_path / "cons.json"
    path.write_text(json.dumps([{"pattern": "edge", "target": 0.5},
                                {"pattern": "t1", "target": 0.25}]))
    assert run(tmp_path, "sample", "--n", "10", "--constraints", str(path), "--delta", "0.05",
               "--out-dir", str(tmp_path / "d")) == 1
    err = capsys.readouterr().err
    assert "sampling and enumeration constraints must be all-present patterns" in err
    assert not (tmp_path / "d" / "samples.csv").exists()


# each subcommand's options as its manifest records them; the benchmark reads
# options.threads from the scan and sample manifests
MANIFEST_OPTIONS = {
    "cut-distance": ["a", "b", "dbar", "max_order", "out", "seed", "subcommand", "threads"],
    "density": ["graphon", "out", "pattern", "seed", "subcommand", "threads", "vertex_cap"],
    "entropy": ["graphon", "out", "seed", "subcommand", "threads"],
    "enumerate": ["constraints", "delta", "eps", "full_histogram", "histogram", "model", "n",
                  "out", "seed", "subcommand", "tau", "threads"],
    "optimize": ["constraints", "eps", "m", "m_max", "model", "out", "seed", "signed_objective",
                 "signed_zero", "starts", "subcommand", "tau", "threads", "tol"],
    "perm-count": ["alpha", "delta", "n", "out", "pattern", "seed", "subcommand", "threads"],
    "perm-density": ["method", "out", "pattern", "perm", "permuton", "samples", "seed",
                     "subcommand", "threads"],
    "perm-optimize": ["constraint", "out", "resolution", "seed", "starts", "subcommand", "threads"],
    "reference": ["eps", "out", "seed", "subcommand", "tau", "threads"],
    "sample": ["burn_in", "chains", "constraints", "delta", "eps", "interval", "model", "n", "out",
               "out_dir", "samples", "seed", "subcommand", "tau", "threads"],
    "scan": ["eps_max", "eps_min", "grid", "m_max", "model", "out", "seed", "spike_factor",
             "starts", "subcommand", "svg", "svg_field", "tau_max", "tau_min", "threads", "tol"],
}

# one small run of every subcommand; q.json, b.json and g.json are inputs
RUNS = {
    "density": ["--graphon", "q.json", "--pattern", "triangle", "--out", "d.json"],
    "entropy": ["--graphon", "q.json", "--out", "e.json"],
    "optimize": ["--eps", "0.45", "--tau", "0.08", "--starts", "3", "--m-max", "2",
                 "--out", "o.json"],
    "reference": ["--eps", "0.5", "--tau", "0.1", "--out", "r.json"],
    "scan": ["--grid", "2x1", *SCAN_TILE, "--out", "s.csv", "--svg", "s.svg"],
    "sample": ["--n", "12", "--eps", "0.5", "--tau", "0.125", "--delta", "0.05", "--samples", "2",
               "--burn-in", "100", "--interval", "50", "--chains", "2", "--out-dir", "chains",
               "--out", "s.json"],
    "enumerate": ["--n", "5", "--eps", "0.5", "--tau", "0.125", "--delta", "0.2",
                  "--histogram", "h.csv", "--full-histogram", "--out", "en.json"],
    "perm-density": ["--permuton", "g.json", "--pattern", "12", "--method", "montecarlo",
                     "--samples", "2000", "--out", "pd.json"],
    "perm-optimize": ["--constraint", "12=0.6", "--constraint", "123=0.3", "--resolution", "6",
                      "--starts", "2", "--out", "po.json"],
    "perm-count": ["--n", "4", "--pattern", "12", "--alpha", "0.5", "--delta", "0.1",
                   "--out", "pc.json"],
    "cut-distance": ["--a", "q.json", "--b", "b.json", "--dbar", "--max-order", "3",
                     "--out", "cd.json"],
}


def _args(sub, root):
    """RUNS[sub] with its inputs written under root and named by absolute path;
    outputs stay relative to the directory the run is made in."""
    root.mkdir(exist_ok=True)
    q = StepGraphon([0.5, 0.5], [[0.2, 0.7], [0.7, 0.4]])
    for name, doc in (("q.json", q), ("b.json", StepGraphon.constant(0.5)),
                      ("g.json", GridPermuton.uniform(3))):
        (root / name).write_text(json.dumps(doc.to_dict()))
    return [str(root / a) if (root / a).exists() else a for a in RUNS[sub]]


def _written(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_every_subcommand_is_pinned_and_run():
    assert sorted(RUNS) == sorted(MANIFEST_OPTIONS) == sorted(build_parser().subcommands)


@pytest.mark.parametrize("sub", sorted(RUNS))
def test_manifest_records_the_pinned_options(tmp_path, monkeypatch, sub):
    # the manifest is written before the subcommand runs, so the run is skipped
    monkeypatch.setattr(cli, "_cmd_" + sub.replace("-", "_"), lambda opts: 0)
    assert run(tmp_path, sub, *_args(sub, tmp_path / "inputs"), "--manifest", "m.json") == 0
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["subcommand"] == sub
    assert sorted(manifest["options"]) == MANIFEST_OPTIONS[sub]


@pytest.mark.parametrize("sub", sorted(RUNS))
def test_every_manifest_replays_through_config_alone(tmp_path, capsys, sub):
    work = tmp_path / "work"
    work.mkdir()
    assert run(work, sub, *_args(sub, tmp_path / "inputs")) == 0
    first, stdout = _written(work), capsys.readouterr().out
    out = RUNS[sub][RUNS[sub].index("--out") + 1]
    replay = tmp_path / "replay.json"
    replay.write_bytes(first[out + ".manifest.json"])
    shutil.rmtree(work)
    work.mkdir()
    assert run(work, sub, "--config", str(replay)) == 0
    assert _written(work) == first  # the outputs and the manifest itself
    assert capsys.readouterr().out == stdout


def test_config_values_are_checked_like_flags(tmp_path, capsys):
    # 2.9 starts ran as 2 and exited 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.4, "tau": 0.05, "starts": 2.9}))
    assert run(tmp_path, "optimize", "--config", str(cfg), "--out", "o.json") == 1
    assert "argument --starts: invalid int value: '2.9'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_command_line_constraint_replaces_the_config_list(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"constraint": ["12=0.6", "123=0.25"], "resolution": 4,
                               "starts": 1, "subcommand": "perm-optimize", "out": None}))
    for extra, constraint in (([], ["12=0.6", "123=0.25"]),
                              (["--constraint", "21=0.3"], ["21=0.3"])):
        assert run(tmp_path, "perm-optimize", "--config", str(cfg), *extra) == 0
        assert len(json.loads(capsys.readouterr().out)["residuals"]) == len(constraint)
        options = json.loads((tmp_path / "phases-manifest.json").read_text())["options"]
        assert options["constraint"] == constraint and options["resolution"] == 4


@pytest.mark.parametrize("args, message", [
    ([], "one of the arguments --perm --permuton is required"),
    (["--perm", "pi.txt", "--permuton", "g.json"],
     "argument --permuton: not allowed with argument --perm"),
])
def test_perm_density_needs_exactly_one_source(tmp_path, capsys, args, message):
    # neither used to leave a manifest; both used to read --perm alone
    assert run(tmp_path, "perm-density", "--pattern", "12", *args) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
