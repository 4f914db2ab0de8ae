"""Tiny graph builders, a brute-force colorability check, the paper's loop
recomputed step by step, solver stand-ins and a bench CSV reader shared
across the test modules."""
import csv
import io

import numpy as np

from wfcolor.coloring import UNCOLORED, Coloring, SolveResult
from wfcolor.graph import Graph


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


def naive_propagate(g: Graph, colors: np.ndarray, m: int, v: int):
    """Reference implementation of the paper's domain cascade.

    Instead of incremental bookkeeping it recomputes every uncolored
    vertex's domain from scratch (all m colors minus the colors of colored
    neighbors) after each forced coloring, taking forced unit domains in
    lowest-id order until none remain.  Returns (colors, domains) at the
    fixed point, or None as the restart signal when a domain empties.

    The final state is order-independent: coloring the forced vertices in
    any other order reaches the same one, or empties a domain as well.
    """
    if m < 1:
        raise ValueError("need at least one color")
    if colors[v] == UNCOLORED:
        raise ValueError(f"vertex {v} is not colored")
    colors = np.array(colors, dtype=np.int32, copy=True)
    full = set(range(1, m + 1))
    while True:
        domains: list[set[int] | None] = [None] * g.n
        forced = -1
        for u in range(g.n):
            if colors[u] != UNCOLORED:
                continue
            dom = full - {int(colors[w]) for w in g.neighbors(u)
                          if colors[w] != UNCOLORED}
            if not dom:
                return None
            domains[u] = dom
            # a unit domain counts as forced only once a neighbor's color
            # has actually been struck from it; with m == 1 every domain
            # starts as a unit and no removal can have happened
            if len(dom) == 1 and m >= 2 and forced == -1:
                forced = u
        if forced == -1:
            return colors, domains
        colors[forced] = domains[forced].pop()


def paper_wfc(g: Graph, tie_break: str = "degree", seed: int = 0
              ) -> tuple[np.ndarray, int, int, int, list[int]]:
    """The paper's collapse loop, built on naive_propagate.  From budget
    m = max(max_degree, 1): seed the lowest-id maximum-degree vertex with
    color 1 and cascade, then give the uncolored vertex of minimum entropy
    its smallest open color and cascade, until a domain empties (start over
    with m + 1) or all are colored.  Entropy ties go to the lowest rank:
    with tie_break "degree" the rank orders by highest degree, then lowest
    id; with "random" it is the position in a permutation of the vertices
    drawn from numpy's default_rng(seed).  Returns (colors, restarts,
    final_m, the count of cascade-colored vertices in the successful run,
    and each vertex's saturation when colored: m - |domain| if picked,
    m - 1 if cascaded, 0 for the seed); (no colors, 0, 1, 0, []) if n = 0."""
    if tie_break == "random":
        ranked = np.random.default_rng(seed).permutation(g.n)
    elif tie_break == "degree":
        ranked = np.lexsort((np.arange(g.n), -g.degrees))
    else:
        raise ValueError(f"unknown tie_break {tie_break!r}")
    rank = np.argsort(ranked).tolist()  # vertex -> its position in ranked
    if g.n == 0:
        return np.zeros(0, dtype=np.int32), 0, 1, 0, []
    degrees = g.degrees.tolist()
    seed_v = max(range(g.n), key=lambda u: (degrees[u], -u))
    m0 = max(g.max_degree, 1)
    m = m0
    while True:
        colors = np.zeros(g.n, dtype=np.int32)
        colors[seed_v] = 1
        forced, sat = 0, np.zeros(g.n, dtype=np.int64)
        out = naive_propagate(g, colors, m, seed_v)
        while out is not None:
            after, domains = out
            cascaded = after != colors
            forced += int(np.count_nonzero(cascaded))
            sat[cascaded] = m - 1
            colors = after
            open_ = [u for u in range(g.n) if domains[u] is not None]
            if not open_:
                return colors, m - m0, m, forced, sat.tolist()
            v = min(open_, key=lambda u: (len(domains[u]), rank[u]))
            sat[v] = m - len(domains[v])
            colors[v] = min(domains[v])
            out = naive_propagate(g, colors, m, v)
        m += 1


def one_color_solve(g: Graph, **_) -> SolveResult:
    """A broken stand-in for wfc.solve: every vertex gets color 1, which is
    improper on any graph with an edge."""
    return SolveResult(coloring=Coloring(np.ones(g.n, dtype=np.int32)), k=1)


def read_csv(text: str) -> list[dict[str, str]]:
    """A bench CSV report as one dict per row, keyed by the header."""
    return list(csv.DictReader(io.StringIO(text)))
