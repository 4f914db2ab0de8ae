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

solve runs one of two passes, module functions with one signature and one
result; both make the same picks, and the tests check solve against the
paper's loop in tests/util.py, baselines.dsatur and networkx's DSATUR.
Sparse graphs take _heap_pass: a heap, with lazy deletion, of the struck
vertices' keys, each ordered by saturation, then rank, and carrying its
vertex; a pointer that walks the rank order for the picks at saturation 0;
and a Python-int bitset of the colors around each vertex, so memory grows
with the struck vertices and the colors in use, not with n times the
budget, and no domain sets (the test reference does).  A pendant, a
vertex of degree 1, is colored at the strike that reaches it, with no key
and no pick: its one neighbor is then colored, so its color is fixed, and
it strikes nothing, so the cascade's early collapse changes no other pick.
stats["selections"] stays the paper's n - 1 all the same.  The pass
reads the CSR in place through memoryviews, keeps the ranks and the rank
order as int32 arrays and no offset list, and inlines its steps in one
loop over local variables, since three method calls and fresh attribute
loads a pick cost about a fifth of the time there.  Dense graphs
take _dense_pass, whose pick is the argmin of one key array and whose
strike is a few whole-array numpy operations over uint64 color words
instead of a Python loop over every arc.  One rule, _is_dense, picks the
pass before the first pick, from the graph alone: a mean degree at the
dense rule, or one in the band below it where the color words fit and a
triangle closes at the seed vertex within the rows of its first BAND_ROWS
neighbors.  G(n,p) and k-partite graphs go dense in the band; crowns and
random bipartite graphs, which have no triangle and strike few colors per
arc, keep the heap.

DomainState is the paper's step API (set_color, observe, collapse,
propagate) over _heap_pass's state, with the steps that pass inlines as
methods, for one attempt at a color budget m with ties ranked by degree,
then id.  It is the traced driver's stepper: the driver in wfbench
times it step by step, and observe returning RESTART is its one dead-end
signal.  solve does not use it.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from .coloring import Coloring, SolveResult
from .graph import Graph, _check_int, _check_seed, _check_vertex

# observe's dead-end result (never a vertex id)
RESTART = -1

TIE_BREAKS = ("degree", "random")

# a graph whose mean degree reaches DENSE_DEGREE + n / DENSE_PER_N gets the
# dense pass (see _is_dense)
DENSE_DEGREE = 150
DENSE_PER_N = 1000
# below that, a graph whose mean degree reaches BAND_DEGREE + n / BAND_PER_N
# gets it too when a triangle closes at the seed vertex within the rows of
# its first BAND_ROWS neighbors and its color words fit
BAND_DEGREE = 60
BAND_PER_N = 2000
BAND_ROWS = 16


def _rank_order(g: Graph, tie_break: str,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertices in rank order, the tie-break among equal saturations,
    and each vertex's rank, both int32: (-degree, id), or a permutation
    drawn from seed when tie_break is "random"."""
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    _check_seed(seed)
    if tie_break == "random":
        order = np.random.default_rng(seed).permutation(g.n)
    else:
        order = np.argsort(-g.degrees, kind="stable")
    order = order.astype(np.int32)
    rank = np.empty(g.n, dtype=np.int32)
    rank[order] = np.arange(g.n, dtype=np.int32)
    return order, rank


class DomainState:
    """The paper's step API for one attempt at color budget m, as the
    traced driver in wfbench steps it: observe returns RESTART once spent.

    A vertex's saturation is the number of distinct colors among its
    colored neighbors; an uncolored vertex's domain is {1..m} minus those
    colors.  The state is _heap_pass's, with ties ranked by degree, then
    id: the keys, the heap of the struck vertices' keys, the pointer that
    walks the rank order and the bitsets, laid out as that pass's
    docstring says, with its steps as methods.  observe picks every
    vertex, pendants included, where the pass colors a pendant at its
    neighbor's strike; both leave the same colors and saturations.  The
    rank order and the ranks are int32 arrays, read through memoryviews
    made at each call as the CSR is, so copy.deepcopy and pickle copy a
    state.  A state is owned by a single run and never shared.

    Colors are bounded by n, or by m when it is smaller: no saturation
    reaches n, so a budget of n or more changes no verdict of observe.
    """

    def __init__(self, g: Graph, m: int):
        _check_int(m, "color budget")
        if m < 1:
            raise ValueError("need at least one color")
        m = int(m)
        self._order, self._rank = _rank_order(g, "degree", 0)
        self.g = g
        self._n = n = g.n
        # a colored vertex's key, and one more color's step down the keys
        self._nn = n * n
        self.m = m
        self._cap = min(m, n)
        self._key = [0] * n
        self._heap: list[int] = []
        # the walk's place in the rank order
        self._p = 0
        self._colors = [0] * n
        # the saturation each vertex was colored at (0 while uncolored)
        self.sat = [0] * n
        # a key below this has saturation >= the budget
        self._floor = (1 - self._cap) * self._nn
        self._colored = 0
        # colors used around each vertex, bit c-1 for color c; -1 (every
        # bit) once the vertex is colored, so strikes skip it in one test
        self._used = [0] * n

    # -- counters ---------------------------------------------------------

    @property
    def colored_count(self) -> int:
        return self._colored

    @property
    def forced_count(self) -> int:
        """Colored vertices picked at saturation m - 1, whose domain was one
        color: the paper's cascade colors exactly these.  0 with m = 1,
        where every domain starts at one color."""
        return self.sat.count(self.m - 1) if self.m >= 2 else 0

    def saturation(self, v: int) -> int:
        """Distinct colors among v's colored neighbors; fixed once v is
        colored."""
        _check_vertex(v, self._n)
        k, nn = self._key[v], self._nn
        return self.sat[v] if k == nn else -(k // nn)

    @property
    def colors(self) -> np.ndarray:
        """int32 per-vertex colors, 0 for uncolored (a copy)."""
        return np.array(self._colors, dtype=np.int32)

    # -- steps ------------------------------------------------------------

    def set_color(self, v: int, color: int) -> None:
        """Assign v a color directly (the seeding step; collapse goes
        through it too).  No propagation."""
        _check_vertex(v, self._n)
        if self._colors[v]:
            raise ValueError(f"vertex {v} already colored")
        _check_int(color, "color")
        if not 1 <= color <= self._cap:
            raise ValueError(f"color {color} outside 1..{self._cap}")
        self._colors[v] = int(color)
        nn = self._nn
        self.sat[v] = -(self._key[v] // nn)
        self._key[v] = nn
        self._used[v] = -1
        self._colored += 1

    def observe(self) -> int:
        """Uncolored vertex of highest saturation, ties to the lowest rank,
        or RESTART, the one dead-end signal, if that saturation has reached
        the budget.  Colors nothing, so repeated calls agree."""
        if self._colored >= self._n:
            raise ValueError("observe() called with no uncolored vertices")
        heap, n, key = self._heap, self._n, self._key
        while heap:
            k = heap[0]
            v = k % n
            if key[v] == k:
                return RESTART if k < self._floor else v
            heappop(heap)
        order, used, p = memoryview(self._order), self._used, self._p
        while used[order[p]]:
            p += 1
        self._p = p
        return order[p]

    def collapse(self, v: int) -> int:
        """Assign v the smallest color absent from its neighbors and return
        it."""
        _check_vertex(v, self._n)
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
        _check_vertex(v, self._n)
        c = self._colors[v]
        if not c:
            raise ValueError(f"vertex {v} is not colored")
        n = self._n
        bit = 1 << (c - 1)
        used, key, heap, nn = self._used, self._key, self._heap, self._nn
        # the CSR and the ranks read in place: memoryview items are Python
        # ints
        rank, ptr = memoryview(self._rank), memoryview(self.g.indptr)
        for w in memoryview(self.g.indices)[ptr[v]:ptr[v + 1]]:
            u = used[w]
            if u & bit:
                continue
            used[w] = u | bit
            # a first strike builds w's key from its rank
            k = (key[w] if u else rank[w] * n + w) - nn
            key[w] = k
            heappush(heap, k)
        if len(heap) > 2 * (n - self._colored):
            self._heap = _compact(heap, key, n)
        return True


def _compact(heap: list[int], key: list[int], n: int) -> list[int]:
    """heap's live keys as a new heap: one per saturated uncolored vertex,
    the negative keys, since only a strike pushes one.  _heap_pass and
    DomainState call this once the heap holds more than twice the uncolored
    count, so each rebuild drops at least half the heap and costs O(1) a
    push."""
    heap = [k for k in heap if key[k % n] == k]
    heapify(heap)
    return heap


def _heap_pass(g: Graph, v: int, tie_break: str,
               seed: int) -> tuple[list[int], list[int], int]:
    """solve's pass on a sparse graph from vertex v, with tie_break and seed
    as in solve: collapse and propagate v, then observe, collapse and
    propagate until every vertex is colored, the steps inlined in one loop
    over local variables, with the CSR read through memoryviews, so a pick
    makes no numpy slice.  Returns each vertex's color, the saturation it
    was colored at and the stale heap pops.

    Only saturated vertices have heap keys.  A vertex v's key is 0 while
    its saturation is 0, (rank - sat * n) * n + v once it is struck, where
    the rank is its place in the rank order, and n * n once it is colored.
    A struck key is negative, the least is the vertex of highest
    saturation, then lowest rank, and in every form key % n is the vertex
    and -(key // (n * n)) its saturation.  The heap holds the struck
    vertices' keys with lazy deletion: a strike pushes a new key, and
    outdated keys are dropped when they surface.  A pick that came off the
    top of the heap leaves its key there, outdated, and its first push
    replaces that key in one sift (heapreplace), counted as a stale pop.
    When the heap holds no live key, every uncolored vertex has saturation
    0 and the pick is the first of them in rank order: a pointer p walks
    the order past colored and struck vertices (a nonzero bitset), and
    never moves back, since no vertex regains saturation 0.  So the pass
    builds a key only for a strike, and keeps the rank and the order as
    int32 arrays.

    A pendant, a vertex of degree 1, is colored at the strike that reaches
    it, with no key and no pick: its one neighbor is then colored, so its
    color is fixed (2 if the neighbor took 1, else 1) at saturation 1, and
    coloring it strikes nothing, so every other pick, color and saturation
    is DSatur's.  The pass marks a pendant by storing its rank as -1 -
    rank, which the first strike reads anyway.  A pendant picked before
    any strike reaches it, at saturation 0, is picked as any vertex is.
    The loop counts colored vertices, not picks.  DomainState keeps this
    state between its steps, but picks every vertex."""
    n = g.n
    nn = n * n
    order, rank = _rank_order(g, tie_break, seed)
    np.subtract(-1, rank, out=rank, where=g.degrees == 1)
    order, rank = memoryview(order), memoryview(rank)
    key, heap, p = [0] * n, [], 0
    colors, sat, used = [0] * n, [0] * n, [0] * n
    ptr, indices = memoryview(g.indptr), memoryview(g.indices)
    stale = colored = 0
    # the pick's outdated key is the heap's top
    top = False
    while colored < n:
        # collapse: the lowest clear bit of v's bitset
        u = used[v]
        c = (~u & (u + 1)).bit_length()
        colors[v] = c
        sat[v] = -(key[v] // nn)
        key[v] = nn
        used[v] = -1
        colored += 1
        # propagate; a first strike builds w's key from its rank, or
        # colors w if it is a pendant
        bit = 1 << (c - 1)
        for w in indices[ptr[v]:ptr[v + 1]]:
            u = used[w]
            if u & bit:
                continue
            if u:
                k = key[w] - nn
            else:
                k = rank[w]
                if k < 0:
                    colors[w] = 2 if c == 1 else 1
                    sat[w] = 1
                    key[w] = nn
                    used[w] = -1
                    colored += 1
                    continue
                k = k * n + w - nn
            used[w] = u | bit
            key[w] = k
            if top:
                heapreplace(heap, k)
                stale += 1
                top = False
            else:
                heappush(heap, k)
        if len(heap) > 2 * (n - colored):
            heap = _compact(heap, key, n)
        if colored < n:
            # observe: the heap's least live key, else the walk
            while heap:
                k = heap[0]
                v = k % n
                if key[v] == k:
                    top = True
                    break
                heappop(heap)
                stale += 1
            else:
                top = False
                while used[order[p]]:
                    p += 1
                v = order[p]
    return colors, sat, stale


# _dense_pass's bit masks, as np.uint64 scalars: numpy < 2 promotes uint64
# with a Python int to float64
_FULL = 2**64 - 1  # a word with every color
_ALL = np.uint64(_FULL)
_NONE = np.uint64(0)
_BITS = [np.uint64(1 << i) for i in range(64)]


def _dense_pass(g: Graph, v: int, tie_break: str,
                seed: int) -> tuple[list[int], list[int], int]:
    """solve's pass on a dense graph, called as _heap_pass is: its picks
    and colors without its heap.  Returns each vertex's color, the
    saturation it was colored at and 0 stale pops.

    The keys sit in one int64 array, whose argmin is the pick: an uncolored
    vertex's key is rank - saturation * n, a colored vertex's n plus the
    saturation it was colored at, which exceeds every uncolored key and
    leaves the saturations in the array at the end.  The colors around
    each vertex sit in uint64 words, 64 colors to a word and one length-n
    array per word: words[j][u] bit i is set when color 64 * j + i + 1 is
    around u, every bit once u is colored, and a word is added when a color
    first needs it.  So a strike is a few whole-array numpy operations over
    the colored vertex's neighbors.  The words take n * ceil(k / 64) * 8
    bytes for k colors, which stays within the int32 CSR's 8m bytes on
    every graph that _is_dense sends here.  Above the dense rule k <=
    sqrt(2m) + 1, since a greedy coloring has an edge between every two
    color classes; with mean degree d = 2m/n that is about n * sqrt(d * n)
    / 8 bytes, which d > n / 1000 keeps below 8m, and in practice far below
    it: 16 kB against 2 MB on gnp(1000, 0.5).  In the band below it k <=
    max_degree + 1, and _is_dense asks _words_fit.  The colors are an int32
    array, and the words are freed before the two result lists are built.
    """
    n = g.n
    # the ranks are freed once the key array is built
    key = _rank_order(g, tie_break, seed)[1].astype(np.int64)
    colors = np.zeros(n, dtype=np.int32)
    words: list[np.ndarray] = []
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
        key[v] = n - int(key[v]) // n
        for word in words:
            word[v] = _ALL
        # propagate; a color past the last word needs one more word, all
        # ones at the colored vertices and empty elsewhere
        j, i = divmod(c - 1, 64)
        if j == len(words):
            words.append(np.where(key >= n, _ALL, _NONE))
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
    del words
    key -= n
    return colors.tolist(), key.tolist(), 0


def _words_fit(g: Graph) -> bool:
    """True when color words for max_degree + 1 colors, the most a greedy
    pass uses, take no more than the int32 CSR's 8m bytes."""
    return g.n * ((g.max_degree + 64) // 64) <= g.m


def _is_dense(g: Graph) -> bool:
    """True when solve should run _dense_pass from the first pick: when g's
    mean degree d = 2m/n reaches DENSE_DEGREE + n / DENSE_PER_N, or when d
    reaches BAND_DEGREE + n / BAND_PER_N, the color words fit (_words_fit)
    and a triangle closes at solve's seed vertex v: a row among those of
    v's first BAND_ROWS neighbors, read in CSR order, holds a neighbor of v.

    Above the dense rule the whole-array strikes pay for the O(n) argmin a
    pick on every graph measured, even those that favor the heap most
    (crowns and random bipartite graphs cross at mean degree about 125-155
    up to n = 16,000, 175 at n = 32,000).  In the band below it the heap
    wins on graphs that strike few colors per arc, such as those two,
    which have no triangle, while G(n,p) has triangles.  A triangle does
    not bound the colors, though: a 3-partite graph colored with 3 colors
    goes dense and runs slower there.  The band's n term keeps large
    graphs, where the argmin costs most, on the heap."""
    n, arcs = g.n, 2 * g.m
    if arcs >= n * (DENSE_DEGREE + n / DENSE_PER_N):
        return True
    if arcs < n * (BAND_DEGREE + n / BAND_PER_N) or not _words_fit(g):
        return False
    # solve's seed vertex; n > 0 here, as the empty graph is dense
    nb = g.neighbors(int(np.argmax(g.degrees)))
    near = np.zeros(n, dtype=bool)
    near[nb] = True
    return any(near[g.neighbors(u)].any() for u in nb[:BAND_ROWS].tolist())


def solve(g: Graph, tie_break: str = "degree", seed: int = 0) -> SolveResult:
    """Color g in one saturation pass: seed the lowest-id maximum-degree
    vertex with color 1, then observe/collapse/propagate until every vertex
    is colored.  The pass, chosen once before the first pick, is _dense_pass
    when _is_dense(g) and _heap_pass otherwise; neither builds a
    DomainState, and both make the same picks.  The layout that ran is
    stats["layout"].  The tests check solve against the paper's loop in
    tests/util.py (colors and counters, both tie modes), baselines.dsatur
    and networkx's DSATUR.  The empty graph gets k = 0.

    tie_break orders vertices of equal saturation: "degree" (highest degree,
    then lowest id) or "random" (a permutation of the vertices drawn from
    seed, so a fixed seed gives identical runs).  Both modes refuse a seed
    that is not a non-negative int, though "degree" does not use it.

    The paper's counters follow from the pass (see the module docstring):
    restarts = int(k > m0) with m0 = max(max_degree, 1), final_m = m0 +
    restarts, and the forced colorings are the vertices picked at
    saturation final_m - 1 (none when final_m is 1).
    """
    # the first maximum is the lowest id; nothing is colored yet, so its
    # smallest open color is 1.  A pass over no vertex runs no step
    v = int(np.argmax(g.degrees)) if g.n else 0
    dense = _is_dense(g)
    pass_ = _dense_pass if dense else _heap_pass
    colors, sat, stale_pops = pass_(g, v, tie_break, seed)
    coloring = Coloring(np.array(colors, dtype=np.int32))
    k = coloring.k
    m0 = max(g.max_degree, 1)
    restarts = int(k > m0)
    final_m = m0 + restarts
    forced = sat.count(final_m - 1) if final_m >= 2 else 0
    stats = {"selections": max(g.n - 1, 0), "strikes": sum(sat),
             "stale_pops": stale_pops, "layout": "dense" if dense else "heap"}
    return SolveResult(coloring=coloring, k=k, restarts=restarts,
                       final_m=final_m, forced_colorings=forced, stats=stats)
