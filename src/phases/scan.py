"""Grid scans of a two-density constraint space.

Each grid cell runs the escalating entropy optimizer (warm-started from its
already-solved left and lower neighbors), records the canonical bipodal
parameters, and finite differences of those parameters across the grid
expose phase transitions as derivative spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphon import ConstraintVector, StepGraphon, SubgraphPattern, _check_vertex_cap
from .optimizer import OptimizerOptions, OptimizerResult, constrained_entropy
from .svg import heatmap_svg

RESOLUTION_CAP = 200
PARAM_NAMES = ("a", "b", "d", "c_small")
AXIS_LABELS = ("eps", "tau")  # CSV header and SVG axis labels
SVG_FIELDS = ("entropy", "podality", "transition")  # what field_grid can draw
SPIKE_FACTOR = 10.0


@dataclass
class ScanCell:
    """Summary of one grid cell's optimizer outcome."""

    x: float
    y: float
    feasible: bool = False
    failed: bool = False
    entropy: float = math.nan
    podality: int = 0
    params: tuple[float, float, float, float] = (math.nan,) * 4
    symmetric_bipodal: bool = False
    constant: bool = False
    residual_max: float = math.nan
    spread: float | None = None
    insertion_gain: float | None = None
    graphon: StepGraphon | None = None


def _cell_params(res: OptimizerResult) -> tuple[float, float, float, float]:
    """Canonical bipodal parameters (a, b, d, c_small); podality 1 collapses
    to a=b=d=p and c_small=0, higher podality summarizes the top two blocks."""
    q = res.graphon
    if q.m == 1:
        p = float(q.values[0, 0])
        return (p, p, p, 0.0)
    return (
        float(q.values[0, 0]),
        float(q.values[1, 1]),
        float(q.values[0, 1]),
        float(q.masses[1]),
    )


@dataclass
class PhaseMap:
    """Scan output: per-cell optimizer summaries plus transition candidates."""

    model: str
    x_values: np.ndarray
    y_values: np.ndarray
    cells: list[list[ScanCell]]  # indexed [ix][iy]
    deriv_x: np.ndarray = field(default=None, repr=False)
    deriv_y: np.ndarray = field(default=None, repr=False)
    transition: np.ndarray = field(default=None, repr=False)

    @property
    def nx(self) -> int:
        return len(self.x_values)

    @property
    def ny(self) -> int:
        return len(self.y_values)

    def field_grid(self, name: str) -> list[list[float]]:
        """values[iy][ix] for one of SVG_FIELDS."""
        if name not in SVG_FIELDS:
            raise ValueError(f"unknown scan field {name!r}")
        grid = []
        for iy in range(self.ny):
            row = []
            for ix in range(self.nx):
                cell = self.cells[ix][iy]
                if name == "entropy":
                    row.append(cell.entropy if cell.feasible else math.nan)
                elif name == "podality":
                    row.append(float(cell.podality) if cell.feasible else math.nan)
                else:
                    row.append(float(self.transition[ix, iy]))
            grid.append(row)
        return grid

    def to_csv(self, path: str) -> None:
        cols = (
            [*AXIS_LABELS, "feasible", "failed", "entropy", "podality"]
            + list(PARAM_NAMES)
            + [
                "symmetric_bipodal",
                "constant",
                "residual_max",
                "multistart_spread",
                "insertion_gain",
                "deriv_x",
                "deriv_y",
                "transition",
            ]
        )
        lines = [",".join(cols)]
        for ix in range(self.nx):
            for iy in range(self.ny):
                c = self.cells[ix][iy]
                vals = [
                    f"{c.x:.17g}",
                    f"{c.y:.17g}",
                    str(int(c.feasible)),
                    str(int(c.failed)),
                    f"{c.entropy:.17g}",
                    str(c.podality),
                ]
                vals += [f"{p:.17g}" for p in c.params]
                vals += [
                    str(int(c.symmetric_bipodal)),
                    str(int(c.constant)),
                    f"{c.residual_max:.17g}",
                    "" if c.spread is None else f"{c.spread:.17g}",
                    "" if c.insertion_gain is None else f"{c.insertion_gain:.17g}",
                    f"{self.deriv_x[ix, iy]:.17g}",
                    f"{self.deriv_y[ix, iy]:.17g}",
                    str(int(self.transition[ix, iy])),
                ]
                lines.append(",".join(vals))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_svg(self, path: str, field_name: str = "entropy") -> None:
        doc = heatmap_svg(
            self.field_grid(field_name),
            self.x_values,
            self.y_values,
            title=f"{self.model}: {field_name}",
            x_label=AXIS_LABELS[0],
            y_label=AXIS_LABELS[1],
        )
        with open(path, "w") as fh:
            fh.write(doc + "\n")


def _solve_cell(patterns, x, y, opts, seeds):
    # a ValueError is a target outside the solver's domain; anything else is
    # a fault and propagates
    try:
        cons = ConstraintVector(((patterns[0], x), (patterns[1], y)))
        res = constrained_entropy(cons, opts, extra_seeds=tuple(seeds))
    except ValueError:
        return ScanCell(x=x, y=y, failed=True)
    cell = ScanCell(
        x=x,
        y=y,
        feasible=res.feasible,
        entropy=res.entropy if res.feasible else math.nan,
        podality=res.podality if res.feasible else 0,
        residual_max=max(res.residuals) if res.residuals else 0.0,
        spread=res.multistart_spread,
        insertion_gain=res.insertion_gain,
        symmetric_bipodal=res.symmetric_bipodal,
        constant=res.constant,
        graphon=res.graphon if res.feasible else None,
    )
    if res.feasible:
        cell.params = _cell_params(res)
    return cell


def phase_scan(
    patterns: tuple[SubgraphPattern, SubgraphPattern],
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    resolution: tuple[int, int],
    opts: OptimizerOptions | None = None,
    spike_factor: float = SPIKE_FACTOR,
    model: str = "edge-triangle",
) -> PhaseMap:
    """Scan the constraint rectangle; infeasible and failed cells are recorded
    (never dropped).  Cells are solved one after another, column by column,
    each warm-started from the graphons of its left and lower neighbors.
    Transition candidates are cells where a centered finite-difference
    parameter derivative exceeds spike_factor times the grid median."""
    nx, ny = resolution
    if nx < 1 or ny < 1 or nx > RESOLUTION_CAP or ny > RESOLUTION_CAP:
        raise ValueError(f"resolution must be within 1..{RESOLUTION_CAP} per axis")
    # checked here, not per cell: _solve_cell reads a ValueError as a target
    # outside the domain
    for p in patterns:
        _check_vertex_cap(p)
    opts = opts or OptimizerOptions()
    xs = np.linspace(x_range[0], x_range[1], nx)
    ys = np.linspace(y_range[0], y_range[1], ny)
    cells: list[list[ScanCell]] = [[] for _ in range(nx)]
    for ix in range(nx):
        for iy in range(ny):
            near = [cells[ix - 1][iy]] if ix else []
            if iy:
                near.append(cells[ix][iy - 1])
            seeds = [c.graphon for c in near if c.graphon is not None]
            cells[ix].append(_solve_cell(patterns, float(xs[ix]), float(ys[iy]), opts, seeds))

    params = np.full((nx, ny, len(PARAM_NAMES)), np.nan)
    for ix in range(nx):
        for iy in range(ny):
            if cells[ix][iy].feasible:
                params[ix, iy] = cells[ix][iy].params

    def centered(axis: int, values: np.ndarray) -> np.ndarray:
        # centered differences inside, one-sided at the edges
        step = values[1] - values[0] if len(values) > 1 else 0.0
        if step == 0:
            return np.zeros((nx, ny))
        return np.abs(np.gradient(params, step, axis=axis)).max(axis=2)

    deriv_x = centered(0, xs)
    deriv_y = centered(1, ys)
    transition = np.zeros((nx, ny), dtype=bool)
    for d in (deriv_x, deriv_y):
        finite = d[np.isfinite(d)]
        if finite.size:
            med = float(np.median(finite))
            cut = spike_factor * med if med > 0 else np.inf
            transition |= np.nan_to_num(d, nan=0.0) > cut
    return PhaseMap(
        model=model,
        x_values=xs,
        y_values=ys,
        cells=cells,
        deriv_x=deriv_x,
        deriv_y=deriv_y,
        transition=transition,
    )
