"""Tiny graph builders, a brute-force colorability check, solver stand-ins
and a bench CSV reader shared across the test modules."""
import csv
import io

import numpy as np

from wfcolor.coloring import Coloring
from wfcolor.graph import Graph
from wfcolor.wfc import SolveResult


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    assert n >= 3
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def colorable(g: Graph, k: int) -> bool:
    """Whether g has a proper coloring with k colors, by raw enumeration that
    shares nothing with the library's colorers or oracles.  Vertex 0 takes
    color 0, since colors are interchangeable.  Each further vertex v extends
    every surviving row by each of the k colors, and a row is dropped at the
    first edge (u, v), u < v, whose ends match: no color of a later vertex
    can make it proper again."""
    if g.n == 0:
        return True
    rows = np.zeros((int(k >= 1), 1), np.int16)
    for v in range(1, g.n):
        rows = np.column_stack((np.repeat(rows, k, axis=0),
                                np.tile(np.arange(k, dtype=np.int16), len(rows))))
        nb = g.neighbors(v)
        for u in nb[nb < v]:
            rows = rows[rows[:, u] != rows[:, v]]
    return len(rows) > 0


def one_color_solve(g: Graph, **_) -> SolveResult:
    """A broken stand-in for wfc.solve: every vertex gets color 1, which is
    improper on any graph with an edge."""
    return SolveResult(coloring=Coloring(np.ones(g.n, dtype=np.int32)), k=1)


def read_csv(text: str) -> list[dict[str, str]]:
    """A bench CSV report as one dict per row, keyed by the header."""
    return list(csv.DictReader(io.StringIO(text)))
