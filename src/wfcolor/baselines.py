"""Reference constructive colorers: single-pass greedy, saturation-driven
greedy (DSatur), and recursive-largest-first (RLF).

Each is one self-contained loop, independent of the collapse solver
(wfc.py) that is checked and timed against them: this module imports only
graph.py and coloring.py, which holds their result type, SolveResult.  A
set of colors is a Python-int bitset.  All three break ties one way: they
scan a vertex order fixed once per call and keep the first maximum.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .coloring import Coloring, SolveResult
from .graph import Graph, _check_seed, _int_array

SATURATION_MODES = ("distinct", "count")
RLF_TIE_BREAKS = ("random", "lowest-id")


def resolve_order(g: Graph, order: str | Sequence[int]) -> np.ndarray:
    """Vertex ordering as an int32 array: "degree" (highest first, lowest id
    on ties) or an explicit permutation, read by graph._int_array."""
    if isinstance(order, str):
        if order == "degree":
            return np.argsort(-g.degrees, kind="stable").astype(np.int32)
        raise ValueError(f"unknown ordering {order!r}; use 'degree' or a "
                         "permutation")
    arr = _int_array(order, "explicit ordering must be a 1-D sequence of integers")
    if arr.ndim != 1 or arr.shape[0] != g.n or not np.array_equal(np.sort(arr), np.arange(g.n)):
        raise ValueError("explicit ordering must be a permutation of 0..n-1")
    return arr.astype(np.int32)


def iterated_greedy(g: Graph, order: str | Sequence[int] = "degree") -> SolveResult:
    """Color vertices in a static order, each with the smallest color absent
    from its colored neighborhood.  One pass, no backtracking; never uses
    more than max_degree + 1 colors."""
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    colors = [0] * g.n
    for v in resolve_order(g, order).tolist():
        # bit c for each neighbor color c; bit 0 (uncolored) is always set,
        # so the lowest clear bit is the smallest free color
        used = 1
        for w in nbrs[ptr[v]:ptr[v + 1]]:
            used |= 1 << colors[w]
        colors[v] = (~used & (used + 1)).bit_length() - 1
    coloring = Coloring(np.array(colors, dtype=np.int32))
    return SolveResult(coloring=coloring, k=coloring.k)


def dsatur(g: Graph, saturation: str = "distinct") -> SolveResult:
    """Repeatedly color the uncolored vertex of maximum saturation with its
    smallest feasible color.  The textbook O(n^2) form: each step scans every
    vertex in resolve_order(g, "degree") and keeps the first maximum, so ties
    go to the highest degree then the lowest id.

    saturation="distinct" counts distinct colors in the colored neighborhood
    (the established rule); "count" counts colored neighbors instead.
    """
    if saturation not in SATURATION_MODES:
        raise ValueError(f"saturation must be one of {SATURATION_MODES}")
    count = saturation == "count"
    n, indptr, indices = g.n, g.indptr, g.indices
    order = resolve_order(g, "degree").tolist()
    colors = np.zeros(n, dtype=np.int32)
    sat = np.zeros(n, dtype=np.int32)
    used = [0] * n  # colors around each vertex, bit c-1 for color c
    for _ in range(n):
        best = bs = -1
        for v in order:
            if colors[v] == 0 and sat[v] > bs:
                best, bs = v, sat[v]
        u = used[best]
        c = (~u & (u + 1)).bit_length()
        colors[best] = c
        bit = 1 << (c - 1)
        for w in indices[indptr[best]:indptr[best + 1]]:
            if colors[w] != 0:
                continue
            if count or not used[w] & bit:
                sat[w] += 1
            used[w] |= bit
    coloring = Coloring(colors)
    return SolveResult(coloring=coloring, k=coloring.k)


def rlf(g: Graph, seed: int = 0, tie_break: str = "random") -> SolveResult:
    """Build color classes one independent set at a time: seed each class
    with a highest-degree uncolored vertex, then grow it with the eligible
    vertex having the most neighbors among the parked ones (W).  Each pick
    scans one vertex order and keeps the first maximum: by default a
    permutation drawn from np.random.default_rng(seed), or the ids in
    ascending order with tie_break="lowest-id", which ignores a valid seed."""
    if tie_break not in RLF_TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {RLF_TIE_BREAKS}")
    _check_seed(seed)
    n = g.n
    scan = (np.random.default_rng(seed).permutation(n).tolist()
            if tie_break == "random" else range(n))
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    degrees = g.degrees.tolist()
    colors = [0] * n
    uncolored = n
    k = 0
    while uncolored:
        k += 1
        # eligible for class k: uncolored and not parked in W
        free = [not c for c in colors]
        w_count = [0] * n
        key = degrees  # the class starts at a highest-degree vertex
        while True:
            best = top = -1
            for u in scan:
                if free[u] and key[u] > top:
                    best, top = u, key[u]
            if best < 0:
                break
            colors[best] = k
            free[best] = False
            uncolored -= 1
            # park best's eligible neighbors in W and bump the W-neighbor
            # counts of the vertices still eligible
            for w in nbrs[ptr[best]:ptr[best + 1]]:
                if free[w]:
                    free[w] = False
                    for z in nbrs[ptr[w]:ptr[w + 1]]:
                        if free[z]:
                            w_count[z] += 1
            key = w_count
    coloring = Coloring(np.array(colors, dtype=np.int32))
    return SolveResult(coloring=coloring, k=coloring.k)
