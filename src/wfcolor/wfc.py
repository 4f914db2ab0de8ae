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

DomainState is the engine.  It has two layouts, picked from the graph
alone by one rule on the mean degree (_is_dense), and both give the same
picks, colors and counters: sparse graphs keep a heap of (saturation,
rank) keys with lazy deletion and a Python-int bitset of the colors around
each vertex; dense graphs keep one key array, whose argmin is the pick, and
uint64 color words, so a strike is a few whole-array numpy operations
instead of a Python loop over every arc.  Either way memory grows with the
colors in use, not with n times the budget.  It keeps no domain sets
(oracle.naive_propagate does), and under a budget its one dead-end signal
is observe returning RESTART.

solve runs each layout's _pass: the whole pass as one loop, with observe,
collapse and propagate inlined over local variables, since three method
calls and fresh attribute loads a pick cost the heap layout about a fifth
of its time on sparse graphs.  The public steps (set_color, observe,
collapse, propagate) are the paper's step API, which a traced driver can
time one by one, and the reference the tests compare _pass against; both
paths share the rare work (compacting the heap, adding a color word).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

import numpy as np

from .coloring import Coloring
from .graph import Graph

# observe's dead-end result (never a vertex id)
RESTART = -1
_NOTHING_LEFT = "observe() called with no uncolored vertices"

TIE_BREAKS = ("degree", "random")

# a graph whose mean degree reaches DENSE_DEGREE + n / DENSE_PER_N gets the
# dense layout (see _is_dense)
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
    the dense layout, which has no heap)."""

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
    colors.  Each uncolored vertex has a key ``rank - sat * n``, so the
    least key is the vertex of highest saturation, then lowest rank, and
    divmod(key, n) gives back both; a colored vertex's key is n.  The rank
    is the (-degree, id) order, or a seeded random permutation of the
    vertices when tie_break is "random".  A state is owned by a single run
    and never shared.

    Constructing a DomainState picks one of two layouts from the graph
    alone (``_is_dense``); both give the same picks, colors and counters:

    * sparse graphs: a heap of keys with lazy deletion (a strike pushes a
      new key, and outdated keys are dropped when they surface) and a
      Python-int bitset of the colors around each vertex;
    * dense graphs: one int64 key array, whose argmin is the pick, and the
      colors around each vertex as uint64 words, 64 colors to a word and
      one length-n array per word, so a strike is a few whole-array numpy
      operations over the colored vertex's neighbors.  It has no heap, so
      stale_pops stays 0.  The words take n * ceil(k / 64) * 8 bytes for k
      colors.  In solve's pass k <= sqrt(2m) + 1, since a greedy coloring
      has an edge between every two color classes; with mean degree d =
      2m/n that is about n * sqrt(d * n) / 8 bytes, which the rule's d >
      n / 1000 keeps below the int32 CSR's 8m bytes, and in practice far
      below it: 16 kB against 2 MB on gnp(1000, 0.5).

    Colors are bounded by n, or by m when it is smaller: no saturation
    reaches n, so a larger budget changes no verdict of observe.

    The steps are the paper's step API and the tests' reference.  solve
    calls the layout's private _pass instead, which runs the same steps
    inlined in one loop and leaves the same state.
    """

    def __new__(cls, g: Graph | None = None, *args, **kwargs):
        # copy and pickle call a layout's __new__ with no arguments
        if cls is DomainState and g is not None:
            cls = _DenseState if _is_dense(g) else _HeapState
        return super().__new__(cls)

    def __init__(self, g: Graph, m: int | None = None, seed: int = 0,
                 tie_break: str = "degree"):
        if m is not None and m < 1:
            raise ValueError("need at least one color")
        if tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
        self.g = g
        self._n = n = g.n
        self.m = m
        self._cap = n if m is None else min(m, n)
        if tie_break == "random":
            order = np.random.default_rng(seed).permutation(n)
        else:
            order = np.argsort(-g.degrees, kind="stable")
        self._colors = [0] * n
        # the saturation each vertex was colored at (0 while uncolored)
        self.sat = [0] * n
        # a key below this has saturation >= the budget
        self._floor = (1 - self._cap) * n
        self._colored = 0
        self.stale_pops = 0
        self._build(order)  # the layout's _key and color sets

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
        k = int(self._key[v])
        return self.sat[v] if k == n else -(k // n)

    @property
    def colors(self) -> np.ndarray:
        """int32 per-vertex colors, 0 for uncolored (a copy)."""
        return np.array(self._colors, dtype=np.int32)

    # -- steps ------------------------------------------------------------

    def set_color(self, v: int, color: int) -> None:
        """Assign v a color directly (the seeding step; collapse goes
        through it too).  No propagation."""
        if not 0 <= v < self._n:
            self._refuse(v)
        if self._colors[v]:
            raise ValueError(f"vertex {v} already colored")
        if not 1 <= color <= self._cap:
            raise ValueError(f"color {color} outside 1..{self._cap}")
        self._colors[v] = color
        self.sat[v] = self._retire(v)  # the layout's key and color set
        self._colored += 1


class _HeapState(DomainState):
    """The sparse layout: a lazy heap of keys and Python-int bitsets."""

    def _build(self, order: np.ndarray) -> None:
        n = self._n
        self._order = order.tolist()
        self._ptr = self.g.indptr.tolist()
        # colors used around each vertex, bit c-1 for color c; -1 (every
        # bit) once the vertex is colored, so strikes skip it in one test
        self._used = [0] * n
        # each vertex's live key (at first its rank), or n (never a key)
        # once it is colored
        self._key = np.argsort(order).tolist()
        self._heap = list(range(n))  # rank order: already a heap

    def _retire(self, v: int) -> int:
        n = self._n
        k = self._key[v]
        self._key[v] = n
        self._used[v] = -1
        return -(k // n)

    def observe(self) -> int:
        """Uncolored vertex of highest saturation, ties to the lowest rank,
        or RESTART, the one dead-end signal, if that saturation has reached
        the budget.  Leaves the vertex in the heap, so repeated calls agree."""
        if self._colored >= self._n:
            raise ValueError(_NOTHING_LEFT)
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


class _DenseState(DomainState):
    """The dense layout: an int64 key array and uint64 color words."""

    def _build(self, order: np.ndarray) -> None:
        self._key = np.argsort(order).astype(np.int64)
        # _words[j][v] bit i: color 64 * j + i + 1 is around v; every bit
        # once v is colored.  A word is added when a color first needs it.
        self._words: list[np.ndarray] = []

    def _retire(self, v: int) -> int:
        n = self._n
        k = int(self._key[v])
        self._key[v] = n
        for word in self._words:
            word[v] = _ALL
        return -(k // n)

    def observe(self) -> int:
        """Uncolored vertex of highest saturation, ties to the lowest rank,
        or RESTART, the one dead-end signal, if that saturation has reached
        the budget: the key array's argmin, since a colored vertex's key n
        exceeds every uncolored one's."""
        if self._colored >= self._n:
            raise ValueError(_NOTHING_LEFT)
        v = int(self._key.argmin())
        return RESTART if self._key[v] < self._floor else v

    def collapse(self, v: int) -> int:
        """Assign v the smallest color absent from its neighbors and return
        it."""
        if not 0 <= v < self._n:
            self._refuse(v)
        c = 64 * len(self._words) + 1
        for j, word in enumerate(self._words):
            u = int(word[v])
            if u != _FULL:
                c = 64 * j + (~u & (u + 1)).bit_length()
                break
        # set_color rejects a colored v and a color past the budget
        self.set_color(v, c)
        return c

    def propagate(self, v: int) -> bool:
        """Strike colored v's color from its uncolored neighbors in one
        gather, mask and scatter, lowering the key of each neighbor whose
        saturation rises.  Always True: a saturation that reaches the
        budget shows at the next observe."""
        n = self._n
        c = self._colors[v] if 0 <= v < n else 0
        if not c:
            self._refuse(v)
        j, i = divmod(c - 1, 64)
        if len(self._words) <= j:
            self._add_words(j)
        word = self._words[j]
        bit = _BITS[i]
        ptr = self.g.indptr
        # intp ids: numpy casts int32 indices on every fancy index otherwise
        nb = self.g.indices[ptr[v]:ptr[v + 1]].astype(np.intp)
        fresh = nb[(word[nb] & bit) == _NONE]
        word[fresh] |= bit
        self._key[fresh] -= n  # one more color around each
        return True

    def _add_words(self, j: int) -> None:
        """Add color words up to word j, each all ones at the colored
        vertices and empty elsewhere."""
        words, n = self._words, self._n
        while len(words) <= j:
            words.append(np.where(self._key == n, _ALL, _NONE))

    def _pass(self, v: int) -> None:
        """solve's pass from uncolored v, as _HeapState._pass."""
        n = self._n
        if not 0 <= v < n:
            self._refuse(v)
        colors, sat = self._colors, self.sat
        key, words = self._key, self._words
        ptr, indices, cap = self.g.indptr, self.g.indices, self._cap
        argmin, colored = key.argmin, self._colored
        try:
            while True:
                # collapse: the lowest clear bit of v's first open word
                if colors[v]:
                    raise ValueError(f"vertex {v} already colored")
                c = 64 * len(words) + 1
                for j, word in enumerate(words):
                    u = int(word[v])
                    if u != _FULL:
                        c = 64 * j + (~u & (u + 1)).bit_length()
                        break
                if c > cap:
                    raise ValueError(f"color {c} outside 1..{cap}")
                colors[v] = c
                sat[v] = -(int(key[v]) // n)
                key[v] = n
                for word in words:
                    word[v] = _ALL
                colored += 1
                # propagate
                j, i = divmod(c - 1, 64)
                if len(words) <= j:
                    self._add_words(j)
                word = words[j]
                bit = _BITS[i]
                nb = indices[ptr[v]:ptr[v + 1]].astype(np.intp)
                fresh = nb[(word[nb] & bit) == _NONE]
                word[fresh] |= bit
                key[fresh] -= n
                # as between the steps, no array outlives its pick
                del nb, fresh
                if colored == n:
                    return
                # observe
                v = int(argmin())
        finally:
            self._colored = colored


# the dense layout's bit masks, as np.uint64 scalars: numpy < 2 promotes
# uint64 with a Python int to float64
_FULL = 2**64 - 1  # a word with every color
_ALL = np.uint64(_FULL)
_NONE = np.uint64(0)
_BITS = [np.uint64(1 << i) for i in range(64)]


def _is_dense(g: Graph) -> bool:
    """True when g's mean degree 2m/n reaches DENSE_DEGREE + n /
    DENSE_PER_N: then the dense layout's whole-array strikes save more than
    its O(n) argmin per pick costs.  The constants follow the measured
    crossovers of the graphs with the fewest strikes, which favor the heap
    most (crowns and random bipartite graphs: mean degree about 125-155 up
    to n = 16,000, 175 at n = 32,000); G(n,p) crosses lower."""
    return g.n > 0 and 2 * g.m >= g.n * (DENSE_DEGREE + g.n / DENSE_PER_N)


def solve(g: Graph, tie_break: str = "degree", seed: int = 0) -> SolveResult:
    """Color g in one saturation pass: seed the lowest-id maximum-degree
    vertex with color 1, then observe/collapse/propagate until every vertex
    is colored, as DomainState's steps inlined in its layout's _pass.

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
    # the first maximum is the lowest id; nothing is colored yet, so its
    # smallest open color is 1
    st._pass(int(np.argmax(g.degrees)))
    coloring = Coloring(st.colors)
    k = coloring.k
    m0 = max(g.max_degree, 1)
    restarts = int(k > m0)
    final_m = m0 + restarts
    forced = st.sat.count(final_m - 1) if final_m >= 2 else 0
    stats = {"selections": g.n - 1, "strikes": sum(st.sat),
             "stale_pops": st.stale_pops}
    return SolveResult(coloring=coloring, k=k, restarts=restarts,
                       final_m=final_m, forced_colorings=forced, stats=stats)
