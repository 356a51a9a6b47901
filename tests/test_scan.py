import csv
import math

import numpy as np
import pytest

from phases.graphon import PatternTooLargeError, SubgraphPattern
from phases.optimizer import OptimizerOptions
from phases import scan
from phases.scan import phase_scan

PATTERNS = (SubgraphPattern.edge(), SubgraphPattern.triangle())
FAST = OptimizerOptions(n_starts=4, seed=13, m_max=3)


def test_degenerate_single_cell():
    pm = phase_scan(PATTERNS, (0.4, 0.4), (0.05, 0.05), (1, 1), FAST)
    cell = pm.cells[0][0]
    assert cell.feasible
    assert cell.podality == 2
    assert pm.transition.sum() == 0


def test_resolution_cap():
    with pytest.raises(ValueError, match="resolution"):
        phase_scan(PATTERNS, (0.3, 0.4), (0.0, 0.1), (300, 2), FAST)


def test_strip_across_er_curve(tmp_path):
    # fixed eps = 0.4, tau sweeping through eps^3 = 0.064: below the curve the
    # optimizer is the symmetric bipodal, on it podality 1, above it an
    # asymmetric bipodal with a small emerging block
    pm = phase_scan(PATTERNS, (0.4, 0.4), (0.052, 0.076), (1, 9), FAST)
    cells = [pm.cells[0][iy] for iy in range(9)]
    assert all(c.feasible for c in cells)
    er_row = 4  # tau = 0.064 exactly
    assert cells[er_row].podality == 1
    for c in cells[:er_row]:
        assert c.podality == 2
        assert c.symmetric_bipodal
        assert abs(c.params[3] - 0.5) < 1e-3  # c_small = equal halves
    above = cells[er_row + 1]
    assert above.podality >= 2
    assert above.params[3] < 0.25  # small block emerging, c = O(tau - eps^3)
    # the largest parameter derivative sits at the transition
    dy = pm.deriv_y[0]
    assert int(np.argmax(dy)) in (er_row - 1, er_row, er_row + 1)
    # artifacts
    csv_path = tmp_path / "strip.csv"
    svg_path = tmp_path / "strip.svg"
    pm.to_csv(str(csv_path))
    pm.to_svg(str(svg_path), "entropy")
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert float(rows[er_row]["entropy"]) == pytest.approx(cells[er_row].entropy)
    header = list(rows[0])
    assert header[header.index("multistart_spread") + 1] == "insertion_gain"
    for row, c in zip(rows, cells):
        assert row["insertion_gain"] == ("" if c.insertion_gain is None else f"{c.insertion_gain:.17g}")
    assert cells[0].insertion_gain <= 1e-7  # below the curve the certificate stops at m = 2
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "<rect" in svg


def test_smooth_phase_region_has_no_spikes():
    # interior of the symmetric below-curve phase: parameters vary smoothly
    pm = phase_scan(PATTERNS, (0.42, 0.46), (0.02, 0.04), (3, 3), FAST)
    for ix in range(3):
        for iy in range(3):
            cell = pm.cells[ix][iy]
            assert cell.feasible
            assert cell.podality == 2
            assert cell.symmetric_bipodal
    assert pm.transition.sum() == 0


def test_infeasible_cells_recorded_not_dropped():
    # top-left corner has tau > eps^(3/2), which is unachievable
    pm = phase_scan(PATTERNS, (0.25, 0.3), (0.12, 0.17), (2, 2), FAST)
    flat = [pm.cells[ix][iy] for ix in range(2) for iy in range(2)]
    assert any(not c.feasible for c in flat)
    assert all(not c.failed for c in flat)
    assert all(math.isnan(c.entropy) for c in flat if not c.feasible)


def test_kstar_model_scan():
    # edge/2-star model: on its ER curve tau_2 = eps^2 the constant graphon
    # is optimal
    pats = (SubgraphPattern.edge(), SubgraphPattern.star(2))
    pm = phase_scan(pats, (0.3, 0.3), (0.09, 0.09), (1, 1), FAST)
    cell = pm.cells[0][0]
    assert cell.feasible
    assert cell.podality == 1
    assert cell.params[0] == pytest.approx(0.3, abs=1e-4)


def test_solver_fault_propagates(monkeypatch):
    # only a domain error marks a cell failed; a fault in the solver must not
    # pass for an infeasible region of the map
    def broken(*args, **kwargs):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(scan, "constrained_entropy", broken)
    with pytest.raises(RuntimeError, match="solver fault"):
        phase_scan(PATTERNS, (0.4, 0.44), (0.03, 0.05), (2, 2), FAST)


def test_pattern_above_vertex_cap_is_rejected_before_any_cell(monkeypatch):
    # PatternTooLargeError is a ValueError, which a cell would record as a
    # target outside the domain
    solved = []
    monkeypatch.setattr(scan, "constrained_entropy", lambda *a, **k: solved.append(a))
    with pytest.raises(PatternTooLargeError, match="pattern has 7 vertices, cap is 6"):
        phase_scan((PATTERNS[0], SubgraphPattern.star(6)), (0.4, 0.44), (0.03, 0.05), (2, 1), FAST)
    assert solved == []


def test_domain_error_marks_cell_failed(monkeypatch):
    def out_of_domain(*args, **kwargs):
        raise ValueError("target outside the domain")

    monkeypatch.setattr(scan, "constrained_entropy", out_of_domain)
    pm = phase_scan(PATTERNS, (0.4, 0.44), (0.03, 0.05), (2, 2), FAST)
    flat = [pm.cells[ix][iy] for ix in range(2) for iy in range(2)]
    assert all(c.failed and not c.feasible for c in flat)
