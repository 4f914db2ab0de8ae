"""Tiny graph builders, solver stand-ins and a bench CSV reader shared
across the test modules."""
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


def one_color_solve(g: Graph, **_) -> SolveResult:
    """A broken stand-in for wfc.solve: every vertex gets color 1, which is
    improper on any graph with an edge."""
    return SolveResult(coloring=Coloring(np.ones(g.n, dtype=np.int32)), k=1)


def read_csv(text: str) -> list[dict[str, str]]:
    """A bench CSV report as one dict per row, keyed by the header."""
    return list(csv.DictReader(io.StringIO(text)))
