"""Immutable simple undirected graphs in CSR (compressed adjacency) form.

Vertices are 0-based ints.  All solvers and kernels in this package read the
``indptr``/``indices`` arrays directly, so graphs are canonicalized once at
construction: deduplicated, symmetric, self-loop free, neighbors sorted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


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
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        _check_canonical(self.n, self.indptr, self.indices)

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
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a canonical graph from 0-based edge pairs.

        Duplicate pairs and both orientations of an edge collapse to one
        undirected edge.  Self-loops are rejected.
        """
        pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise ValueError("self-loops are not allowed")
            lo = np.minimum(pairs[:, 0], pairs[:, 1])
            hi = np.maximum(pairs[:, 0], pairs[:, 1])
            uniq = np.unique(lo * n + hi)
            lo, hi = uniq // n, uniq % n
        else:
            lo = hi = np.empty(0, dtype=np.int64)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n=n, indptr=indptr, indices=dst.astype(np.int32))


def _check_canonical(n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
    if indptr.shape[0] != n + 1 or indptr[0] != 0 or indptr[-1] != indices.shape[0]:
        raise ValueError("malformed CSR index")
    if indices.shape[0] == 0:
        return
    if indices.min() < 0 or indices.max() >= n:
        raise ValueError("neighbor id out of range")
    for v in range(n):
        row = indices[indptr[v]:indptr[v + 1]]
        if row.shape[0] == 0:
            continue
        if np.any(np.diff(row) <= 0):
            raise ValueError(f"adjacency of vertex {v} not strictly increasing")
        if np.any(row == v):
            raise ValueError(f"self-loop at vertex {v}")
    # symmetry: the multiset of (u, w) arcs must equal the (w, u) arcs
    src = np.repeat(np.arange(n), np.diff(indptr))
    fwd = src * n + indices
    rev = indices.astype(np.int64) * n + src
    if not np.array_equal(np.sort(fwd), np.sort(rev)):
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
    return Graph.from_edges(2 * n, zip(i.tolist(), (n + j).tolist()))


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
    return Graph.from_edges(n, zip(iu[mask].tolist(), ju[mask].tolist()))
