"""The exact chromatic number by backtracking.  Correctness over speed: it
shares no code with the solver paths it verifies, and the exhaustive search
refuses graphs above a vertex cap so runtimes stay harmless."""
from __future__ import annotations

import numpy as np

from .coloring import Coloring
from .graph import Graph

ORACLE_LIMIT = 12


class OracleLimitError(ValueError):
    """Graph too large for exhaustive search."""


def exact_chromatic(g: Graph) -> tuple[int, Coloring]:
    """True chromatic number plus a witness coloring.

    Iterative deepening on k with plain backtracking; vertices are tried
    largest-degree first.  Returning k proves both that a proper k-coloring
    exists (the witness) and that the k-1 search below it failed.
    """
    if g.n > ORACLE_LIMIT:
        raise OracleLimitError(f"{g.n} vertices exceeds oracle limit {ORACLE_LIMIT}")
    if g.n == 0:
        return 0, Coloring(np.empty(0, dtype=np.int32))
    degrees = g.degrees
    order = sorted(range(g.n), key=lambda v: (-degrees[v], v))
    adj = [g.neighbors(v).tolist() for v in range(g.n)]
    colors = [0] * g.n

    def place(pos: int, k: int, used: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        taken = 0
        for w in adj[v]:
            if colors[w]:
                taken |= 1 << colors[w]
        # allow at most one brand-new color: higher ones are symmetric
        top = min(k, used + 1)
        for c in range(1, top + 1):
            if taken >> c & 1:
                continue
            colors[v] = c
            if place(pos + 1, k, max(used, c)):
                return True
            colors[v] = 0
        return False

    for k in range(1, g.n + 1):
        if place(0, k, 0):
            return k, Coloring(np.array(colors, dtype=np.int32))
    raise AssertionError("n colors always suffice")  # pragma: no cover
