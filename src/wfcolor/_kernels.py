"""Baseline kernels: first-fit greedy, textbook O(n^2) DSatur and RLF.

Each is a plain loop over numpy arrays, kept as the independent reference
the collapse solver (wfc.py) is checked and timed against.  RLF's random
tie-breaks draw from a seeded xorshift32 stream.
"""
from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)


def rng_next(state):
    """xorshift32 step.  State lives in a uint64 cell so that shifts never
    wrap."""
    x = state[0]
    x = x ^ ((x << np.uint64(13)) & _MASK32)
    x = x ^ (x >> np.uint64(17))
    x = x ^ ((x << np.uint64(5)) & _MASK32)
    state[0] = x
    return np.int64(x)


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
