"""Immutable simple undirected graphs in CSR (compressed adjacency) form.

Vertices are 0-based ints.  All solvers in this package read the
``indptr``/``indices`` arrays directly, so graphs are canonicalized once at
construction: deduplicated, symmetric, self-loop free, neighbors sorted.
The generators and the DIMACS parser hand ``Graph.from_edges`` a (k, 2) int64
endpoint array; the CSR is built and checked with whole-array numpy operations.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# the CSR arrays are int32, so vertex ids and n must fit in it
MAX_VERTICES = 2**31 - 1


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph.

    indptr/indices form the usual CSR layout: the neighbors of vertex v are
    ``indices[indptr[v]:indptr[v + 1]]``, sorted ascending.  Arrays are
    read-only so a Graph can be shared freely across concurrent solver runs.
    """

    n: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_canonical(self.n, self.indptr, self.indices)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @property
    def m(self) -> int:
        return self.indices.shape[0] // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr).astype(np.int32)

    @property
    def max_degree(self) -> int:
        if self.n == 0 or self.indices.shape[0] == 0:
            return 0
        return int(np.max(np.diff(self.indptr)))

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (us, ws) of every edge with u < w, in canonical (u, w)
        order: the CSR arcs restricted to u < w hold each edge once."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = src < self.indices
        return src[upper], self.indices[upper]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in canonical order."""
        us, ws = self.edge_arrays()
        return list(zip(us.tolist(), ws.tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < row.shape[0] and row[i] == v

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Build a canonical graph from 0-based edge pairs: a (k, 2) integer
        array, or any iterable of integer (u, w) pairs.  Empty input builds
        an edgeless graph.

        Duplicate pairs and both orientations of an edge collapse to one
        undirected edge.  Self-loops are rejected, and so is an n outside
        0..MAX_VERTICES, before anything is allocated.
        """
        _check_vertex_count(n)
        items = edges if isinstance(edges, np.ndarray) else list(edges)
        pairs = np.asarray(items)
        if pairs.size == 0:
            pairs = np.empty((0, 2), np.int64)
        # numpy reads a bool mixed with ints as 0 or 1: reject it by type
        if (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
                or not isinstance(items, np.ndarray) and any(
                    isinstance(x, (bool, np.bool_)) for pair in items for x in pair)):
            raise ValueError("edges must be (u, w) pairs of integers")
        if np.any(pairs < 0) or np.any(pairs >= n):
            raise ValueError("edge endpoint out of range")
        u, w = pairs.astype(np.int64, copy=False).T
        if np.any(u == w):
            raise ValueError("self-loops are not allowed")
        # one key per arc, both orientations, written and sorted in place in
        # one array; sorted keys are in (src, dst) order
        k = u.shape[0]
        keys = np.empty(2 * k, np.int64)
        np.multiply(u, n, out=keys[:k])
        keys[:k] += w
        np.multiply(w, n, out=keys[k:])
        keys[k:] += u
        keys.sort()
        fresh = np.empty(2 * k, bool)
        fresh[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        if not fresh.all():  # a repeated edge
            keys = keys[fresh]
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        keys %= n
        indices = keys.astype(np.int32)
        # free the keys before the canonical check allocates its own
        del fresh, keys
        return cls(n=n, indptr=indptr, indices=indices)


def _check_vertex_count(n: int) -> None:
    # before any allocation: the CSR build allocates O(n) arrays
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def _check_canonical(n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
    _check_vertex_count(n)
    if not (isinstance(indptr, np.ndarray) and isinstance(indices, np.ndarray)
            and indptr.ndim == indices.ndim == 1
            and indptr.dtype.kind == indices.dtype.kind == "i"):
        raise ValueError("indptr and indices must be 1-D signed integer arrays")
    if (indptr.shape[0] != n + 1 or indptr[0] != 0 or indptr[-1] != indices.shape[0]
            or np.any(indptr[1:] < indptr[:-1])):
        raise ValueError("malformed CSR index")
    if np.any(indices < 0) or np.any(indices >= n):
        raise ValueError("neighbor id out of range")
    src = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    # name the lowest offending vertex; on one vertex, row order beats a self-loop
    unsorted = src[1:][(indices[1:] <= indices[:-1]) & (src[1:] == src[:-1])]
    loops = src[indices == src]
    if unsorted.size and not (loops.size and loops[0] < unsorted[0]):
        raise ValueError(f"adjacency of vertex {unsorted[0]} not strictly increasing")
    if loops.size:
        raise ValueError(f"self-loop at vertex {loops[0]}")
    # symmetry: the (u, w) arc keys, already sorted, must equal the (w, u)
    # keys once sorted; int64 keys, since n * n overflows int32
    fwd = np.multiply(src, n, dtype=np.int64)
    fwd += indices
    rev = np.multiply(indices, n, dtype=np.int64)
    rev += src
    del src
    rev.sort()
    if not np.array_equal(fwd, rev):
        raise ValueError("adjacency is not symmetric")


def crown_graph(pairs: int) -> Graph:
    """Complete bipartite graph on parts of size ``pairs`` minus the perfect
    matching: vertex i in part U (0..n-1) is adjacent to n+j iff i != j.

    Every vertex has degree n-1; the graph is bipartite with n(n-1) edges.
    """
    n = pairs
    if n < 2:
        raise ValueError("crown graph needs at least 2 vertex pairs")
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    return Graph.from_edges(2 * n, np.column_stack((i, n + j)))


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a seeded generator: each unordered pair is an edge with
    probability p.  The same (n, p, seed) yields the same graph everywhere.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return Graph.from_edges(n, np.column_stack((iu[mask], ju[mask])))


def star_graph(leaves: int) -> Graph:
    """A hub joined to ``leaves`` vertices: vertex 0 to each of 1..leaves."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    leaf = np.arange(1, leaves + 1)
    hub = np.zeros_like(leaf)
    return Graph.from_edges(leaves + 1, np.column_stack((hub, leaf)))


def barabasi_albert(n: int, k: int, seed: int) -> Graph:
    """Preferential attachment (Barabasi & Albert 1999) with a seeded
    generator: vertices k..n-1 arrive in turn, and each joins k distinct
    earlier vertices, picked with probability proportional to their degree.
    The first arrival joins vertices 0..k-1, which start with no edges."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    rng = np.random.default_rng(seed)
    ends: list[int] = []  # both endpoints of every edge so far
    targets = list(range(k))
    for v in range(k, n):
        for t in targets:
            ends += (v, t)
        # a uniform pick from ends hits each vertex in proportion to its degree
        picked: set[int] = set()
        while len(picked) < k:
            picked.update(ends[i] for i in
                          rng.integers(len(ends), size=k - len(picked)))
        targets = sorted(picked)
    return Graph.from_edges(n, np.array(ends, dtype=np.int64).reshape(-1, 2))
