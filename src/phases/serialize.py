"""File formats for the library's value types.

JSON formats: StepGraphon {"masses": [...], "values": [[...], ...]};
FiniteGraph {"adjacency": [[...], ...]}; SubgraphPattern {"k": 4,
"edges": [[1,2], ...], "absent": [[2,3], ...]} (vertices 1-indexed);
GridPermuton {"k": 8, "g": [[...], ...]}.

Text formats: FiniteGraph as an edge list, one 0-indexed "u v" pair per
line (node count inferred as max index + 1); Permutation as a one-line
integer sequence.  All reals round-trip exactly through repr.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .graphon import FiniteGraph, StepGraphon, SubgraphPattern
from .permuton import GridPermuton, Permutation


class FileFormatError(ValueError):
    """Malformed input file; carries the path and offending field."""

    def __init__(self, path: str, field: str, message: str):
        super().__init__(f"{path}: field {field!r}: {message}")
        self.path = path
        self.field = field


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(path, "<document>", f"invalid JSON: {exc}") from exc


def write_json(obj, path: str | None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load_step_graphon(path: str) -> StepGraphon:
    doc = _load_json(path)
    for key in ("masses", "values"):
        if key not in doc:
            raise FileFormatError(path, key, "missing")
    try:
        return StepGraphon.from_dict(doc)
    except (ValueError, TypeError) as exc:
        raise FileFormatError(path, "masses/values", str(exc)) from exc


def save_step_graphon(q: StepGraphon, path: str) -> None:
    write_json(q.to_dict(), path)


def load_pattern(spec: str) -> SubgraphPattern:
    """Pattern by name (edge, triangle, kstar:K, cycle:K, t1, t2) or by the
    path of a pattern JSON file."""
    named = {
        "edge": SubgraphPattern.edge,
        "triangle": SubgraphPattern.triangle,
        "t1": SubgraphPattern.signed_two_star,
        "signed-2star": SubgraphPattern.signed_two_star,
        "t2": SubgraphPattern.signed_square,
        "signed-square": SubgraphPattern.signed_square,
    }
    if spec in named:
        return named[spec]()
    if spec.startswith("kstar:"):
        return SubgraphPattern.star(int(spec.split(":", 1)[1]))
    if spec.startswith("cycle:"):
        return SubgraphPattern.cycle(int(spec.split(":", 1)[1]))
    if spec.startswith("complete:"):
        return SubgraphPattern.complete(int(spec.split(":", 1)[1]))
    if os.path.exists(spec):
        doc = _load_json(spec)
        try:
            return SubgraphPattern.from_dict(doc)
        except (KeyError, ValueError, TypeError) as exc:
            raise FileFormatError(spec, "k/edges/absent", str(exc)) from exc
    raise ValueError(
        f"unknown pattern {spec!r}: use edge|triangle|t1|t2|kstar:K|cycle:K|"
        "complete:K or a pattern JSON file path"
    )


def load_finite_graph(path: str) -> FiniteGraph:
    if path.endswith(".json"):
        doc = _load_json(path)
        if "adjacency" not in doc:
            raise FileFormatError(path, "adjacency", "missing")
        try:
            return FiniteGraph(doc["adjacency"])
        except (ValueError, TypeError) as exc:
            raise FileFormatError(path, "adjacency", str(exc)) from exc
    edges = []
    max_node = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FileFormatError(
                    path, f"line {lineno}", f"expected 'u v', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise FileFormatError(
                    path, f"line {lineno}", f"non-integer node id in {line!r}"
                ) from exc
            if u < 0 or v < 0:
                raise FileFormatError(path, f"line {lineno}", "negative node id")
            edges.append((u, v))
            max_node = max(max_node, u, v)
    if max_node < 0:
        raise FileFormatError(path, "<document>", "no edges found")
    try:
        return FiniteGraph.from_edges(max_node + 1, edges)
    except ValueError as exc:
        raise FileFormatError(path, "edges", str(exc)) from exc


def save_finite_graph(g: FiniteGraph, path: str) -> None:
    """One `u v` line per edge, u < v, in row order.  Each row is one write
    joined over the shared vertex names, so no string is made per edge (one
    string for the whole graph raised the peak memory of `phases sample`)."""
    names = [str(v) for v in range(g.n)]
    with open(path, "w") as fh:
        for u, row in enumerate(np.triu(g.adjacency, 1)):
            if row.any():
                neighbours = [names[v] for v in np.flatnonzero(row).tolist()]
                fh.write(f"{u} " + f"\n{u} ".join(neighbours) + "\n")


def load_permutation(path: str) -> Permutation:
    with open(path) as fh:
        line = fh.read().strip()
    try:
        return Permutation.from_line(line)
    except ValueError as exc:
        raise FileFormatError(path, "values", str(exc)) from exc


def save_permutation(pi: Permutation, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(pi.to_line() + "\n")


def load_grid_permuton(path: str) -> GridPermuton:
    doc = _load_json(path)
    if "g" not in doc:
        raise FileFormatError(path, "g", "missing")
    try:
        return GridPermuton.from_dict(doc)
    except (ValueError, TypeError) as exc:
        raise FileFormatError(path, "g", str(exc)) from exc


def save_grid_permuton(p: GridPermuton, path: str) -> None:
    write_json(p.to_dict(), path)
