"""Hot solver kernels.

Every kernel below is written as a plain loop over numpy arrays so the same
source runs two ways: JIT-compiled through numba (default), or as pure
Python/numpy when numba is unavailable or ``WFCOLOR_BACKEND=python`` is set.
Mode flags are bools.  ``propagate`` and ``wfc_attempt`` return True on
success and False at a dead end; ``observe`` returns a vertex, or RESTART
at a dead end.

Kernel state for the collapse solver:
  avail    uint8 (n, M)   avail[v, c] = 1 while color c+1 is still open for v
  entropy  int32 (n,)     row popcount of avail, tracked incrementally
  colors   int32 (n,)     0 = uncolored, else assigned color (1-based)
  meta     int64 (2,)     [forced count, colored count]

Selection keeps no index: each observe is one vectorized O(n) scan for the
minimum entropy over the uncolored vertices, then a tie-break among the
vertices at that minimum.
"""
from __future__ import annotations

import os

import numpy as np

BACKEND = "python"
if os.environ.get("WFCOLOR_BACKEND", "numba").lower() != "python":
    try:
        from numba import njit

        BACKEND = "numba"
    except ImportError:  # pragma: no cover - exercised via env flag instead
        BACKEND = "python"


def _jit(fn):
    if BACKEND == "numba":
        return njit(cache=True)(fn)
    return fn


# observe's dead-end result (never a vertex id)
RESTART = -1

# meta slots
_FORCED = 0
_COLORED = 1

_MASK32 = np.uint64(0xFFFFFFFF)


@_jit
def rng_next(state):
    """xorshift32 step.  State lives in a uint64 cell so shifts never wrap,
    keeping the stream identical under numba and plain numpy."""
    x = state[0]
    x = x ^ ((x << np.uint64(13)) & _MASK32)
    x = x ^ (x >> np.uint64(17))
    x = x ^ ((x << np.uint64(5)) & _MASK32)
    state[0] = x
    return np.int64(x)


@_jit
def observe(entropy, colors, degrees, random_ties, rng_state):
    """Uncolored vertex of minimum entropy, or RESTART when that minimum is
    0.  Ties go to the highest degree then lowest id, or to a seeded-uniform
    pick among them when random_ties is on.  Needs at least one uncolored
    vertex."""
    unc = colors == 0
    e = entropy[unc].min()
    if e == 0:
        return RESTART
    ties = np.flatnonzero(unc & (entropy == e))
    if random_ties:
        return ties[rng_next(rng_state) % ties.shape[0]]
    # argmax takes the first maximum: the lowest id among the highest degree
    return ties[np.argmax(degrees[ties])]


@_jit
def collapse(avail, colors, meta, v):
    """Fix v to the smallest color left in its domain.  Returns the color,
    or 0 if the domain was empty (caller contract violation)."""
    m_colors = avail.shape[1]
    for c in range(m_colors):
        if avail[v, c] != 0:
            colors[v] = c + 1
            meta[_COLORED] += 1
            return c + 1
    return 0


@_jit
def propagate(indptr, indices, avail, entropy, colors, meta, stack, start):
    """Depth-first domain restriction from the vertex just colored.

    Pops a colored vertex, strikes its color from every uncolored neighbor's
    domain, and force-colors any neighbor left with a single color (pushing
    it to cascade further).  Returns False when a domain empties or a
    forced color clashes with an already-colored neighbor, else True.
    """
    top = 0
    stack[top] = start
    top += 1
    while top > 0:
        top -= 1
        u = stack[top]
        cu = colors[u] - 1
        for idx in range(indptr[u], indptr[u + 1]):
            w = indices[idx]
            if colors[w] != 0 or avail[w, cu] == 0:
                continue
            avail[w, cu] = 0
            e = entropy[w] - 1
            entropy[w] = e
            if e == 0:
                return False
            if e == 1:
                # w is never its own neighbor, so coloring it before the
                # clash check cannot hide a clash
                forced_c = collapse(avail, colors, meta, w)
                for jdx in range(indptr[w], indptr[w + 1]):
                    if colors[indices[jdx]] == forced_c:
                        return False
                meta[_FORCED] += 1
                stack[top] = w
                top += 1
    return True


@_jit
def wfc_attempt(indptr, indices, degrees, avail, entropy, colors, meta, stack,
                random_ties, rng_state):
    """One full solve attempt at a fixed color budget M = avail.shape[1] on
    a newly built state: seed the lowest-id maximum-degree vertex with
    color 1, then loop observe/collapse/propagate.  True once every vertex
    is colored, False at a dead end."""
    n = colors.shape[0]
    v = np.argmax(degrees)  # first maximum: the lowest id
    colors[v] = 1
    meta[_COLORED] += 1
    while propagate(indptr, indices, avail, entropy, colors, meta, stack, v):
        if meta[_COLORED] == n:
            return True
        v = observe(entropy, colors, degrees, random_ties, rng_state)
        if v == RESTART:
            return False
        collapse(avail, colors, meta, v)
    return False


@_jit
def greedy_assign(indptr, indices, order, colors, mark):
    """Color vertices in the given order, each with the smallest color not
    used by a colored neighbor.  mark is an int32 scratch row (>= max degree
    + 2 wide), stamped instead of cleared between vertices."""
    n = order.shape[0]
    for i in range(n):
        v = order[i]
        stamp = i + 1
        hi = 0
        for idx in range(indptr[v], indptr[v + 1]):
            c = colors[indices[idx]]
            if c != 0:
                mark[c - 1] = stamp
                if c > hi:
                    hi = c
        c = 1
        while c <= hi and mark[c - 1] == stamp:
            c += 1
        colors[v] = c


@_jit
def dsatur_assign(indptr, indices, degrees, colors, adj_used, sat, literal):
    """Saturation-driven greedy.  sat counts distinct neighbor colors, or
    plain colored-neighbor events when literal=True; adj_used tracks the
    colors seen around each vertex either way (it feeds the smallest-feasible
    scan)."""
    n = colors.shape[0]
    for _ in range(n):
        best = -1
        bs = -1
        bd = -1
        for v in range(n):
            if colors[v] != 0:
                continue
            s = sat[v]
            d = degrees[v]
            if best == -1 or s > bs or (s == bs and (d > bd or (d == bd and v < best))):
                best = v
                bs = s
                bd = d
        c = 0
        while adj_used[best, c] != 0:
            c += 1
        colors[best] = c + 1
        for idx in range(indptr[best], indptr[best + 1]):
            w = indices[idx]
            if colors[w] != 0:
                continue
            if adj_used[w, c] == 0:
                adj_used[w, c] = 1
                if not literal:
                    sat[w] += 1
            if literal:
                sat[w] += 1


@_jit
def _rlf_absorb(indptr, indices, colors, in_w, w_count, v):
    # v just joined the class: move its uncolored candidates into W and
    # bump the W-neighbor counts of the vertices still eligible
    for idx in range(indptr[v], indptr[v + 1]):
        w = indices[idx]
        if colors[w] != 0 or in_w[w] != 0:
            continue
        in_w[w] = 1
        for jdx in range(indptr[w], indptr[w + 1]):
            z = indices[jdx]
            if colors[z] == 0 and in_w[z] == 0:
                w_count[z] += 1


@_jit
def rlf_assign(indptr, indices, degrees, colors, in_w, w_count,
               random_ties, rng_state):
    """Build color classes one at a time: seed each class with a highest-
    degree uncolored vertex, then repeatedly add the eligible vertex with the
    most neighbors in the parked set W.  Ties go to a seeded-uniform pick,
    or to the lowest id when random_ties is off."""
    n = colors.shape[0]
    uncolored = n
    k = 0
    while uncolored > 0:
        k += 1
        in_w[:] = 0
        w_count[:] = 0
        best = -1
        bd = -1
        ties = 0
        for v in range(n):
            if colors[v] != 0:
                continue
            d = degrees[v]
            if best == -1 or d > bd:
                best = v
                bd = d
                ties = 1
            elif d == bd and random_ties:
                ties += 1
                if rng_next(rng_state) % ties == 0:
                    best = v
        colors[best] = k
        uncolored -= 1
        _rlf_absorb(indptr, indices, colors, in_w, w_count, best)
        while True:
            best = -1
            bc = -1
            ties = 0
            for u in range(n):
                if colors[u] != 0 or in_w[u] != 0:
                    continue
                c = w_count[u]
                if best == -1 or c > bc:
                    best = u
                    bc = c
                    ties = 1
                elif c == bc and random_ties:
                    ties += 1
                    if rng_next(rng_state) % ties == 0:
                        best = u
            if best == -1:
                break
            colors[best] = k
            uncolored -= 1
            _rlf_absorb(indptr, indices, colors, in_w, w_count, best)
    return k


def seeded_rng_state(seed: int) -> np.ndarray:
    """32-bit xorshift state from an arbitrary int seed (never zero)."""
    s = (int(seed) * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
    if s == 0:
        s = 0x9E3779B9
    return np.array([s], dtype=np.uint64)
