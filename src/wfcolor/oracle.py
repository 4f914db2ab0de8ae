"""Brute-force cross-checks used by the test suite.  Correctness over speed:
nothing here shares code with the solver paths it verifies."""
from __future__ import annotations

from itertools import permutations

import numpy as np

from .coloring import UNCOLORED
from .exact import OracleLimitError
from .graph import Graph


def best_greedy_ordering_k(g: Graph, limit: int = 8) -> int:
    """Minimum color count of first-fit greedy over every vertex ordering.

    Some ordering always achieves the chromatic number, so a complete
    enumeration returns exactly that.  Uses its own inline greedy so it stays
    independent of the library's colorers.  It visits up to n! orderings,
    so a graph of more than limit vertices raises OracleLimitError.
    """
    n = g.n
    if n > limit:
        raise OracleLimitError(f"{n} vertices exceeds oracle limit {limit}")
    if n == 0:
        return 0
    adj = [g.neighbors(v).tolist() for v in range(n)]
    col = [0] * n
    best = n + 1
    for perm in permutations(range(n)):
        hi = 0
        for v in perm:
            taken = 0
            for w in adj[v]:
                taken |= 1 << col[w]
            c = 1
            while taken >> c & 1:
                c += 1
            col[v] = c
            if c > hi:
                hi = c
        if hi < best:
            best = hi
            if best == 1:
                break
        for v in perm:
            col[v] = 0
    return best


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


def paper_wfc(g: Graph) -> tuple[np.ndarray, int, int, int]:
    """The paper's collapse loop, built on naive_propagate.  From budget
    m = max(max_degree, 1): seed the lowest-id maximum-degree vertex with
    color 1 and cascade, then give the uncolored vertex of minimum entropy
    (ties to the highest degree, then the lowest id) its smallest open
    color and cascade, until a domain empties (start over with m + 1) or
    all are colored.  Returns (colors, restarts, final_m, the number of
    vertices the cascades colored in the successful run)."""
    if g.n < 1:
        raise ValueError("cannot color the empty graph")
    degrees = g.degrees.tolist()
    seed = max(range(g.n), key=lambda u: (degrees[u], -u))
    m0 = max(g.max_degree, 1)
    m = m0
    while True:
        colors = np.zeros(g.n, dtype=np.int32)
        colors[seed] = 1
        forced = 0
        out = naive_propagate(g, colors, m, seed)
        while out is not None:
            after, domains = out
            forced += int(np.count_nonzero(after) - np.count_nonzero(colors))
            colors = after
            open_ = [u for u in range(g.n) if domains[u] is not None]
            if not open_:
                return colors, m - m0, m, forced
            v = min(open_, key=lambda u: (len(domains[u]), -degrees[u], u))
            colors[v] = min(domains[v])
            out = naive_propagate(g, colors, m, v)
        m += 1
