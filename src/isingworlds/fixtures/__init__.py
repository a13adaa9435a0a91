"""Small bundled graphs used by the tests, docs, and CLI walkthroughs.

Constructors accept a scalar coupling (applied uniformly) or a per-edge
sequence.  The bundled files carry each fixture in all three edge
parameterizations; `fixture_path` locates them for CLI use.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Sequence

from ..errors import InvalidParameterError
from ..graph import WeightedGraph


def _with_betas(pairs: list[tuple[int, int]], beta: float | Sequence[float]) -> list[tuple[int, int, float]]:
    if isinstance(beta, (int, float)):
        values = [float(beta)] * len(pairs)
    else:
        values = [float(b) for b in beta]
        if len(values) != len(pairs):
            raise InvalidParameterError(f"expected {len(pairs)} couplings, got {len(values)}")
    return [(i, j, b) for (i, j), b in zip(pairs, values)]


def path_graph(n: int, beta: float | Sequence[float] = 0.5) -> WeightedGraph:
    pairs = [(i, i + 1) for i in range(n - 1)]
    return WeightedGraph.from_edges(n, _with_betas(pairs, beta))


def cycle_graph(n: int, beta: float | Sequence[float] = 0.5) -> WeightedGraph:
    pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return WeightedGraph.from_edges(n, _with_betas(pairs, beta))


def complete_graph(n: int, beta: float | Sequence[float] = 0.5) -> WeightedGraph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return WeightedGraph.from_edges(n, _with_betas(pairs, beta))


def grid_graph(rows: int, cols: int, beta: float | Sequence[float] = 0.5) -> WeightedGraph:
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return WeightedGraph.from_edges(rows * cols, _with_betas(pairs, beta))


FIXTURES = {
    "k2": lambda beta=0.5: complete_graph(2, beta),
    "path3": lambda beta=0.5: path_graph(3, beta),
    "triangle": lambda beta=0.5: complete_graph(3, beta),
    "cycle4": lambda beta=0.5: cycle_graph(4, beta),
    "k4": lambda beta=0.5: complete_graph(4, beta),
    "grid3x3": lambda beta=0.5: grid_graph(3, 3, beta),
}

FIXTURE_NAMES = tuple(FIXTURES)


def fixture_graph(name: str, beta: float | Sequence[float] = 0.5) -> WeightedGraph:
    try:
        return FIXTURES[name](beta)
    except KeyError:
        raise InvalidParameterError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}") from None


def fixture_path(name: str, param: str = "beta", fmt: str = "graph") -> Path:
    """Filesystem path of a bundled fixture file, e.g. triangle.beta.graph."""
    filename = f"{name}.{param}.{fmt}"
    path = Path(str(resources.files(__package__) / filename))
    if not path.exists():
        raise InvalidParameterError(f"no bundled fixture file {filename}")
    return path
