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

DomainState is the paper's step API (set_color, observe, collapse,
propagate), which a traced driver can time one by one, and the reference
the tests hold solve to.  It keeps a heap of (saturation, rank) keys with
lazy deletion and a Python-int bitset of the colors around each vertex, so
memory grows with the colors in use, not with n times the budget.  It keeps
no domain sets (oracle.naive_propagate does), and under a budget its one
dead-end signal is observe returning RESTART.

solve runs one of two passes, picked from the graph alone by one rule on
the mean degree (_is_dense); both give the steps' picks and colors.  Sparse
graphs take DomainState._pass, the steps inlined in one loop over local
variables, since three method calls and fresh attribute loads a pick cost
about a fifth of the time there.  Dense graphs take _dense_pass, whose pick
is the argmin of one key array and whose strike is a few whole-array numpy
operations over uint64 color words instead of a Python loop over every arc.
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

# a graph whose mean degree reaches DENSE_DEGREE + n / DENSE_PER_N gets the
# dense pass (see _is_dense)
DENSE_DEGREE = 150
DENSE_PER_N = 1000


@dataclass(frozen=True)
class SolveResult:
    """A coloring with its color count k.  For the collapse solver,
    restarts is 0 or 1 and final_m = max(max_degree, 1) + restarts is the
    budget the paper's loop succeeds with; forced_colorings counts the
    vertices its cascade colors.  stats holds the pass's work counters:
    selections (vertices picked), strikes (colors struck from neighbors,
    one key update each) and stale_pops (outdated heap keys discarded; 0 on
    the dense pass, which has no heap)."""

    coloring: Coloring
    k: int
    restarts: int = 0
    final_m: int | None = None
    forced_colorings: int = 0
    stats: dict[str, int] = field(default_factory=dict)


def _rank_order(g: Graph, tie_break: str, seed: int) -> np.ndarray:
    """The vertices in rank order, the tie-break among equal saturations:
    (-degree, id), or a permutation drawn from seed when tie_break is
    "random"."""
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed}")
    if tie_break == "random":
        return np.random.default_rng(seed).permutation(g.n)
    return np.argsort(-g.degrees, kind="stable")


class DomainState:
    """The paper's step API for one run: a saturation engine with an
    optional color budget m, spent when observe returns RESTART.

    A vertex's saturation is the number of distinct colors among its
    colored neighbors; an uncolored vertex's domain is {1..m} minus those
    colors.  Each uncolored vertex has a key ``rank - sat * n``, so the
    least key is the vertex of highest saturation, then lowest rank, and
    divmod(key, n) gives back both; a colored vertex's key is n.  The rank
    is the (-degree, id) order, or a seeded random permutation of the
    vertices when tie_break is "random".  The keys sit in a heap with lazy
    deletion (a strike pushes a new key, and outdated keys are dropped when
    they surface), and the colors around each vertex in a Python-int
    bitset.  A state is owned by a single run and never shared.

    Colors are bounded by n, or by m when it is smaller: no saturation
    reaches n, so a larger budget changes no verdict of observe.

    solve calls the private _pass on sparse graphs instead of the steps: it
    runs them inlined in one loop and leaves the same state.
    """

    def __init__(self, g: Graph, m: int | None = None, seed: int = 0,
                 tie_break: str = "degree"):
        if m is not None and m < 1:
            raise ValueError("need at least one color")
        order = _rank_order(g, tie_break, seed)
        self.g = g
        self._n = n = g.n
        self.m = m
        self._cap = n if m is None else min(m, n)
        self._colors = [0] * n
        # the saturation each vertex was colored at (0 while uncolored)
        self.sat = [0] * n
        # a key below this has saturation >= the budget
        self._floor = (1 - self._cap) * n
        self._colored = 0
        self.stale_pops = 0
        self._order = order.tolist()
        self._ptr = g.indptr.tolist()
        # colors used around each vertex, bit c-1 for color c; -1 (every
        # bit) once the vertex is colored, so strikes skip it in one test
        self._used = [0] * n
        # each vertex's live key (at first its rank), or n (never a key)
        # once it is colored
        self._key = np.argsort(order).tolist()
        self._heap = list(range(n))  # rank order: already a heap

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

    def _refuse(self, v: int) -> None:
        """Raise a step's ValueError for v: an id outside the graph (a
        negative one would index the per-vertex lists from the end), else a
        vertex propagate cannot start from.  The steps test ``0 <= v < n``
        inline and call this only to fail."""
        n = self._n
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        raise ValueError(f"vertex {v} is not colored")

    def saturation(self, v: int) -> int:
        """Distinct colors among v's colored neighbors; fixed once v is
        colored."""
        n = self._n
        if not 0 <= v < n:
            self._refuse(v)
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
        n = self._n
        if not 0 <= v < n:
            self._refuse(v)
        if self._colors[v]:
            raise ValueError(f"vertex {v} already colored")
        if not 1 <= color <= self._cap:
            raise ValueError(f"color {color} outside 1..{self._cap}")
        self._colors[v] = color
        self.sat[v] = -(self._key[v] // n)
        self._key[v] = n
        self._used[v] = -1
        self._colored += 1

    def observe(self) -> int:
        """Uncolored vertex of highest saturation, ties to the lowest rank,
        or RESTART, the one dead-end signal, if that saturation has reached
        the budget.  Leaves the vertex in the heap, so repeated calls agree."""
        if self._colored >= self._n:
            raise ValueError("observe() called with no uncolored vertices")
        heap, n, order, key = self._heap, self._n, self._order, self._key
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
        if not 0 <= v < self._n:
            self._refuse(v)
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
        n = self._n
        c = self._colors[v] if 0 <= v < n else 0
        if not c:
            self._refuse(v)
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
            self._compact()
        return True

    def _compact(self) -> list[int]:
        """Keep only the live keys, one per uncolored vertex, and return the
        new heap: propagate calls this once the heap holds more than twice
        the uncolored count, so each rebuild drops at least half the heap
        and costs O(1) a push."""
        n, key, order = self._n, self._key, self._order
        heap = [k for k in self._heap if key[order[k % n]] == k]
        heapify(heap)
        self._heap = heap
        return heap

    def _pass(self, v: int) -> None:
        """solve's pass from uncolored v: collapse and propagate v, then
        observe, collapse and propagate until every vertex is colored.  The
        steps are inlined over locals, and the state is left as the step
        loop leaves it.  Under a budget a dead end raises at the color
        check, where the step loop's observe would return RESTART."""
        n = self._n
        if not 0 <= v < n:
            self._refuse(v)
        colors, sat, used, key, order = (self._colors, self.sat, self._used,
                                         self._key, self._order)
        ptr, indices, cap = self._ptr, self.g.indices, self._cap
        heap, colored, stale = self._heap, self._colored, self.stale_pops
        try:
            while True:
                # collapse: the lowest clear bit of v's bitset
                if colors[v]:
                    raise ValueError(f"vertex {v} already colored")
                u = used[v]
                c = (~u & (u + 1)).bit_length()
                if c > cap:
                    raise ValueError(f"color {c} outside 1..{cap}")
                colors[v] = c
                sat[v] = -(key[v] // n)
                key[v] = n
                used[v] = -1
                colored += 1
                # propagate
                bit = 1 << (c - 1)
                for w in indices[ptr[v]:ptr[v + 1]].tolist():
                    u = used[w]
                    if u & bit:
                        continue
                    used[w] = u | bit
                    k = key[w] - n
                    key[w] = k
                    heappush(heap, k)
                if len(heap) > 2 * (n - colored):
                    heap = self._compact()
                if colored == n:
                    return
                # observe
                while True:
                    k = heap[0]
                    v = order[k % n]
                    if key[v] == k:
                        break
                    heappop(heap)
                    stale += 1
        finally:
            self._colored, self.stale_pops = colored, stale


# _dense_pass's bit masks, as np.uint64 scalars: numpy < 2 promotes uint64
# with a Python int to float64
_FULL = 2**64 - 1  # a word with every color
_ALL = np.uint64(_FULL)
_NONE = np.uint64(0)
_BITS = [np.uint64(1 << i) for i in range(64)]


def _dense_pass(g: Graph, v: int, tie_break: str,
                seed: int) -> tuple[list[int], list[int]]:
    """solve's pass on a dense graph from vertex v, with tie_break and seed
    as in DomainState: its picks and colors without its heap, so there are
    no stale pops.  Returns each vertex's color and the saturation it was
    colored at.  It draws the rank order itself, so that the order is freed
    once the key array is built.

    DomainState's keys sit in one int64 array, whose argmin is the pick (a
    colored vertex's key n exceeds every uncolored one's), and the colors
    around each vertex in uint64 words, 64 colors to a word and one
    length-n array per word, so a strike is a few whole-array numpy
    operations over the colored vertex's neighbors.  The words take n *
    ceil(k / 64) * 8 bytes for k colors.  Here k <= sqrt(2m) + 1, since a
    greedy coloring has an edge between every two color classes; with mean
    degree d = 2m/n that is about n * sqrt(d * n) / 8 bytes, which
    _is_dense's d > n / 1000 keeps below the int32 CSR's 8m bytes, and in
    practice far below it: 16 kB against 2 MB on gnp(1000, 0.5).
    """
    n = g.n
    key = np.argsort(_rank_order(g, tie_break, seed)).astype(np.int64)
    # words[j][u] bit i: color 64 * j + i + 1 is around u; every bit once u
    # is colored.  A word is added when a color first needs it.
    words: list[np.ndarray] = []
    colors, sat = [0] * n, [0] * n
    ptr, indices, argmin = g.indptr, g.indices, key.argmin
    for colored in range(1, n + 1):
        # collapse: the lowest clear bit of v's first open word
        c = 64 * len(words) + 1
        for j, word in enumerate(words):
            u = int(word[v])
            if u != _FULL:
                c = 64 * j + (~u & (u + 1)).bit_length()
                break
        colors[v] = c
        sat[v] = -(int(key[v]) // n)
        key[v] = n
        for word in words:
            word[v] = _ALL
        # propagate; a color past the last word needs one more word, all
        # ones at the colored vertices and empty elsewhere
        j, i = divmod(c - 1, 64)
        if j == len(words):
            words.append(np.where(key == n, _ALL, _NONE))
        word = words[j]
        bit = _BITS[i]
        # intp ids: numpy casts int32 indices on every fancy index otherwise
        nb = indices[ptr[v]:ptr[v + 1]].astype(np.intp)
        fresh = nb[(word[nb] & bit) == _NONE]
        word[fresh] |= bit
        key[fresh] -= n  # one more color around each
        # no array outlives its pick
        del nb, fresh
        if colored < n:
            # observe
            v = int(argmin())
    return colors, sat


def _is_dense(g: Graph) -> bool:
    """True when g's mean degree 2m/n reaches DENSE_DEGREE + n /
    DENSE_PER_N: then _dense_pass's whole-array strikes save more than its
    O(n) argmin per pick costs.  The constants follow the measured
    crossovers of the graphs with the fewest strikes, which favor the heap
    most (crowns and random bipartite graphs: mean degree about 125-155 up
    to n = 16,000, 175 at n = 32,000); G(n,p) crosses lower."""
    return g.n > 0 and 2 * g.m >= g.n * (DENSE_DEGREE + g.n / DENSE_PER_N)


def solve(g: Graph, tie_break: str = "degree", seed: int = 0) -> SolveResult:
    """Color g in one saturation pass: seed the lowest-id maximum-degree
    vertex with color 1, then observe/collapse/propagate until every vertex
    is colored.  The pass is _dense_pass when _is_dense(g), and otherwise
    DomainState's _pass; both give the picks of DomainState's steps.

    tie_break orders vertices of equal saturation: "degree" (highest degree,
    then lowest id) or "random" (a permutation of the vertices drawn from
    seed, so a fixed seed gives identical runs).  seed is a non-negative
    int, unused with "degree".

    The paper's counters follow from the pass (see the module docstring):
    restarts = int(k > m0) with m0 = max(max_degree, 1), final_m = m0 +
    restarts, and the forced colorings are the vertices picked at
    saturation final_m - 1 (none when final_m is 1).
    """
    if g.n < 1:
        raise ValueError("cannot color the empty graph")
    # the first maximum is the lowest id; nothing is colored yet, so its
    # smallest open color is 1
    v = int(np.argmax(g.degrees))
    if _is_dense(g):
        colors, sat = _dense_pass(g, v, tie_break, seed)
        stale_pops = 0
    else:
        st = DomainState(g, seed=seed, tie_break=tie_break)
        st._pass(v)
        colors, sat, stale_pops = st._colors, st.sat, st.stale_pops
    coloring = Coloring(np.array(colors, dtype=np.int32))
    k = coloring.k
    m0 = max(g.max_degree, 1)
    restarts = int(k > m0)
    final_m = m0 + restarts
    forced = sat.count(final_m - 1) if final_m >= 2 else 0
    stats = {"selections": g.n - 1, "strikes": sum(sat),
             "stale_pops": stale_pops}
    return SolveResult(coloring=coloring, k=k, restarts=restarts,
                       final_m=final_m, forced_colorings=forced, stats=stats)
