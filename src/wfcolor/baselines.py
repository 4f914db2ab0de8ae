"""Reference constructive colorers: single-pass greedy, saturation-driven
greedy (DSatur), and recursive-largest-first (RLF).

Each is one self-contained loop, independent of the collapse solver
(wfc.py) that is checked and timed against them.  A set of colors is a
Python-int bitset; RLF's random tie-breaks draw from a seeded xorshift32
stream.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .coloring import Coloring
from .graph import Graph
from .wfc import SolveResult

ORDERINGS = ("degree", "natural")
SATURATION_MODES = ("distinct", "count")
RLF_TIE_BREAKS = ("random", "lowest-id")


def xorshift32(seed: int) -> Iterator[int]:
    """Endless xorshift32 stream (Marsaglia 2003) from an arbitrary int
    seed; the state is mixed from the seed and never zero."""
    x = (int(seed) * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF or 0x9E3779B9
    while True:
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        yield x


def resolve_order(g: Graph, order: str | Sequence[int]) -> np.ndarray:
    """Vertex ordering as an int32 array: "degree" (highest first, lowest id
    on ties), "natural" (0..n-1), or an explicit permutation of integers."""
    if isinstance(order, str):
        if order == "natural":
            return np.arange(g.n, dtype=np.int32)
        if order == "degree":
            return np.argsort(-g.degrees, kind="stable").astype(np.int32)
        raise ValueError(f"unknown ordering {order!r}; use one of {ORDERINGS}")
    items = list(order)
    arr = np.asarray(items)
    if arr.size == 0:
        arr = arr.astype(np.int32)
    # numpy reads a bool mixed with ints as 0 or 1: reject it by type
    if (arr.ndim != 1 or arr.dtype.kind not in "iu"
            or any(isinstance(x, (bool, np.bool_)) for x in items)):
        raise ValueError("explicit ordering must be a 1-D sequence of integers")
    if arr.shape[0] != g.n or not np.array_equal(np.sort(arr), np.arange(g.n)):
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
    smallest feasible color; ties go to the highest degree then lowest id.
    The textbook O(n^2) form: each step scans every vertex.

    saturation="distinct" counts distinct colors in the colored neighborhood
    (the established rule); "count" counts colored neighbors instead.
    """
    if saturation not in SATURATION_MODES:
        raise ValueError(f"saturation must be one of {SATURATION_MODES}")
    count = saturation == "count"
    n, indptr, indices, degrees = g.n, g.indptr, g.indices, g.degrees
    colors = np.zeros(n, dtype=np.int32)
    sat = np.zeros(n, dtype=np.int32)
    used = [0] * n  # colors around each vertex, bit c-1 for color c
    for _ in range(n):
        best = bs = bd = -1
        for v in range(n):
            if colors[v] != 0:
                continue
            s = sat[v]
            d = degrees[v]
            if s > bs or (s == bs and d > bd):
                best, bs, bd = v, s, d
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
    vertex having the most neighbors among the parked ones (W).  Ties are a
    seeded-uniform pick by default; tie_break="lowest-id" makes runs
    seed-independent."""
    if tie_break not in RLF_TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {RLF_TIE_BREAKS}")
    rng = xorshift32(seed) if tie_break == "random" else None
    n = g.n
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
            best, top, ties = -1, -1, 0
            for u in range(n):
                if not free[u]:
                    continue
                c = key[u]
                if c > top:
                    best, top, ties = u, c, 1
                elif c == top and rng is not None:
                    ties += 1
                    if next(rng) % ties == 0:
                        best = u
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
