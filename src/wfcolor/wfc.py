"""Wave-function-collapse coloring as one saturation pass.

The paper's loop gives each uncolored vertex a domain, {1..m} minus its
colored neighbors' colors, whose size (entropy) is m minus the vertex's
saturation.  It picks a minimum-entropy vertex, fixes it to its smallest
open color, strikes that color from the neighbors' domains and cascades
into any domain left with one color; from m = max(max_degree, 1), an
attempt that empties a domain restarts with one more color.

Minimum entropy is maximum saturation, with the same degree-then-id
tie-break, so the loop is DSatur (Brelaz 1979) and runs here as one pass
with no budget.  The cascade changes no color: a forced vertex has the
least nonzero entropy, so it is the next pick anyway.  The attempt at
max(max_degree, 1) fails exactly when the pass needs more colors, and
max_degree + 1 colors cannot fail, so solve derives the paper's counters.

DomainState is the engine: a heap of (saturation, rank) keys with lazy
deletion and a Python-int bitset of the colors around each vertex, so its
memory grows with the colors in use, not with n times the budget.  It
keeps no domain sets (oracle.naive_propagate does), and under a budget its
one dead-end signal is observe returning RESTART.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

import numpy as np

from .coloring import Coloring
from .graph import Graph

# observe's dead-end result (never a vertex id)
RESTART = -1

TIE_BREAKS = ("degree", "random")


@dataclass(frozen=True)
class SolveResult:
    """A coloring with its color count k.  For the collapse solver,
    restarts is 0 or 1 and final_m = max(max_degree, 1) + restarts is the
    budget the paper's loop succeeds with; forced_colorings counts the
    vertices its cascade colors.  stats holds the pass's work counters:
    selections (vertices picked from the heap), strikes (colors struck from
    neighbors, one heap push each) and stale_pops (outdated heap keys
    discarded)."""

    coloring: Coloring
    k: int
    restarts: int = 0
    final_m: int | None = None
    forced_colorings: int = 0
    stats: dict[str, int] = field(default_factory=dict)


class DomainState:
    """Saturation engine for one run, with an optional color budget m,
    spent when observe returns RESTART.

    A vertex's saturation is the number of distinct colors among its
    colored neighbors; an uncolored vertex's domain is {1..m} minus those
    colors.  Each uncolored vertex has one live heap key ``rank - sat * n``,
    pushed anew at every strike, so the heap's minimum is the vertex of
    highest saturation, then lowest rank; divmod(key, n) gives back both.
    Keys that are no longer live are dropped when they surface.  The rank
    is the (-degree, id) order, or a seeded random permutation of the
    vertices when tie_break is "random".  A state is owned by a single run
    and never shared.
    """

    def __init__(self, g: Graph, m: int | None = None, seed: int = 0,
                 tie_break: str = "degree"):
        if m is not None and m < 1:
            raise ValueError("need at least one color")
        if tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
        n = g.n
        self.g = g
        self.m = m
        # saturation never exceeds n - 1, so n stands for "no budget"
        self._cap = n if m is None else m
        if tie_break == "random":
            order = np.random.default_rng(seed).permutation(n)
        else:
            order = np.argsort(-g.degrees, kind="stable")
        self._order = order.tolist()
        self._ptr = g.indptr.tolist()
        # colors used around each vertex, bit c-1 for color c; -1 (every
        # bit) once the vertex is colored, so strikes skip it in one test
        self._used = [0] * n
        self._colors = [0] * n
        # the saturation each vertex was colored at (0 while uncolored)
        self.sat = [0] * n
        # each vertex's live key (at first its rank), or n (never a key)
        # once it is colored
        self._key = np.argsort(order).tolist()
        self._heap = list(range(n))  # rank order: already a heap
        # a key below this has saturation >= the budget
        self._floor = (1 - self._cap) * n
        self._colored = 0
        self.stale_pops = 0

    # -- counters ---------------------------------------------------------

    @property
    def colored_count(self) -> int:
        return self._colored

    @property
    def forced_count(self) -> int:
        """Colored vertices picked at saturation m - 1, whose domain was one
        color: the paper's cascade colors exactly these.  0 without a
        budget, and with m = 1, where every domain starts at one color."""
        if self.m is None or self.m < 2:
            return 0
        return self.sat.count(self.m - 1)

    def saturation(self, v: int) -> int:
        """Distinct colors among v's colored neighbors; fixed once v is
        colored."""
        n = self.g.n
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        k = self._key[v]
        return self.sat[v] if k == n else -(k // n)

    @property
    def colors(self) -> np.ndarray:
        """int32 per-vertex colors, 0 for uncolored (a copy)."""
        return np.array(self._colors, dtype=np.int32)

    # -- steps ------------------------------------------------------------

    def set_color(self, v: int, color: int) -> None:
        """Assign v a color directly (the seeding step; collapse goes
        through it too).  No propagation."""
        n = self.g.n
        if not 0 <= v < n:  # a negative id would index from the end
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        if self._colors[v]:
            raise ValueError(f"vertex {v} already colored")
        if not 1 <= color <= self._cap:
            raise ValueError(f"color {color} outside 1..{self._cap}")
        self._colors[v] = color
        self._used[v] = -1
        self.sat[v] = -(self._key[v] // n)
        self._key[v] = n
        self._colored += 1

    def observe(self) -> int:
        """Uncolored vertex of highest saturation, ties to the lowest rank,
        or RESTART, the one dead-end signal, if that saturation has reached
        the budget.  Leaves the vertex in the heap, so repeated calls agree."""
        if self._colored >= self.g.n:
            raise ValueError("observe() called with no uncolored vertices")
        heap, n, order, key = self._heap, self.g.n, self._order, self._key
        while True:
            k = heap[0]
            v = order[k % n]
            if key[v] == k:
                return RESTART if k < self._floor else v
            heappop(heap)
            self.stale_pops += 1

    def collapse(self, v: int) -> int:
        """Assign v the smallest color absent from its neighbors and return
        it."""
        if not 0 <= v < self.g.n:
            raise ValueError(f"vertex {v} outside 0..{self.g.n - 1}")
        u = self._used[v]
        # lowest clear bit, 1-based; set_color rejects 0, for colored v
        # (u = -1), and a color past the budget, for an empty domain
        c = (~u & (u + 1)).bit_length()
        self.set_color(v, c)
        return c

    def propagate(self, v: int) -> bool:
        """Strike colored v's color from its uncolored neighbors, pushing
        one heap key per neighbor whose saturation rises.  Always True: a
        saturation that reaches the budget shows at the next observe."""
        n = self.g.n
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        c = self._colors[v]
        if not c:
            raise ValueError(f"vertex {v} is not colored")
        bit = 1 << (c - 1)
        used, key, heap = self._used, self._key, self._heap
        for w in self.g.indices[self._ptr[v]:self._ptr[v + 1]].tolist():
            u = used[w]
            if u & bit:
                continue
            used[w] = u | bit
            k = key[w] - n  # one more color around w
            key[w] = k
            heappush(heap, k)
        if len(heap) > 2 * (n - self._colored):
            # keep only the live keys, one per uncolored vertex: each
            # rebuild drops at least half the heap, so it costs O(1) a push
            order = self._order
            self._heap = [k for k in heap if key[order[k % n]] == k]
            heapify(self._heap)
        return True


def solve(g: Graph, tie_break: str = "degree", seed: int = 0) -> SolveResult:
    """Color g in one saturation pass: seed the lowest-id maximum-degree
    vertex with color 1, then observe/collapse/propagate until every vertex
    is colored.

    tie_break orders vertices of equal saturation: "degree" (highest degree,
    then lowest id) or "random" (a permutation of the vertices drawn from
    seed, so a fixed seed gives identical runs).  seed is unused with
    "degree".

    The paper's counters follow from the pass (see the module docstring):
    restarts = int(k > m0) with m0 = max(max_degree, 1), final_m = m0 +
    restarts, and the forced colorings are the vertices picked at
    saturation final_m - 1 (none when final_m is 1).
    """
    if g.n < 1:
        raise ValueError("cannot color the empty graph")
    st = DomainState(g, seed=seed, tie_break=tie_break)
    v = int(np.argmax(g.degrees))  # first maximum: the lowest id
    st.set_color(v, 1)
    st.propagate(v)
    for _ in range(g.n - 1):  # one selection per vertex after the seed
        v = st.observe()
        st.collapse(v)
        st.propagate(v)
    coloring = Coloring(st.colors)
    m0 = max(g.max_degree, 1)
    restarts = int(coloring.k > m0)
    final_m = m0 + restarts
    forced = st.sat.count(final_m - 1) if final_m >= 2 else 0
    stats = {"selections": g.n - 1, "strikes": sum(st.sat),
             "stale_pops": st.stale_pops}
    return SolveResult(coloring=coloring, k=coloring.k, restarts=restarts,
                       final_m=final_m, forced_colorings=forced, stats=stats)
