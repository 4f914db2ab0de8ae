"""Immutable simple undirected graphs in CSR (compressed adjacency) form.

Vertices are 0-based ints.  All solvers in this package read the
``indptr``/``indices`` arrays directly, so graphs are canonicalized once at
construction: deduplicated, symmetric, self-loop free, neighbors sorted.
The generators hand ``Graph.from_edges`` a (k, 2) int64 endpoint array, and
the DIMACS parser an int32 one; it builds the CSR with whole-array numpy
operations, on keys u * n + w that are uint32 while n * n fits (n up to
65,535), with the indices a view of them, and int64 above that.  That CSR
is canonical by construction, so it is not checked again; a CSR handed to
``Graph(n, indptr, indices)``, or unpickled, is checked in full, its
symmetry on keys of the same width, and copied as native int32, whatever
signed dtype and byte order it came in.  Both paths end in one storing step,
``Graph._store``, so every Graph holds its CSR as frozen native int32
arrays.  ``_vertex_ranges`` cuts the vertices into ranges of about 2 *
BLOCK_ROWS arcs, the one block size: validate compares colors over the
arcs of one range at a time, and
``Graph.edge_blocks`` yields the u < w edges of one range at a time, which
write_dimacs writes and ``edge_arrays`` joins; each holds one block.
Every seeded entry point calls ``_check_seed``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Iterable, Iterator

import numpy as np

# the CSR arrays are int32, so vertex ids and n must fit in it
MAX_VERTICES = 2**31 - 1

# About the edges one vertex range holds, which write_dimacs writes and
# validate checks at a time, and about the lines the DIMACS bulk parse reads
# at a time
BLOCK_ROWS = 8_192


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple undirected graph.

    indptr/indices form the usual CSR layout: the neighbors of vertex v are
    ``indices[indptr[v]:indptr[v + 1]]``, sorted ascending.  Arrays are
    read-only so a Graph can be shared freely across concurrent solver runs.
    Graphs compare and hash by identity.
    """

    n: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_canonical(self.n, self.indptr, self.indices)
        # private native int32 copies: the caller's arrays, or the base of a
        # view, stay writable and must not reach a checked graph.  The cast
        # comes after the check, which bounds every id by n and every offset
        # by the arc count, so it changes no value
        self._store(self.n, np.array(self.indptr, dtype=np.int32),
                    np.array(self.indices, dtype=np.int32))

    def __reduce__(self):
        # a copy or an unpickled graph is outside input: check and freeze it
        return type(self), (self.n, self.indptr, self.indices)

    def _store(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        """The one storing step of every Graph: n as a Python int, so n * n
        cannot wrap in 32 bits, and the native int32 CSR, frozen."""
        object.__setattr__(self, "n", int(n))
        for name, a in (("indptr", indptr), ("indices", indices)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

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
        _check_vertex(v, self.n)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (us, ws) of every edge with u < w, in canonical (u, w)
        order: edge_blocks's blocks joined.  Both are int32, the CSR's own
        dtype."""
        us, ws = zip(*self.edge_blocks())
        return np.concatenate(us), np.concatenate(ws)

    def edge_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (us, ws), the int32 endpoints of the edges with u < w, for
        each of _vertex_ranges's ranges of about 2 * BLOCK_ROWS arcs, so
        about BLOCK_ROWS edges, in canonical (u, w) order.  Each block is
        the range's arcs, with their sources made by np.repeat over its
        indptr, restricted to u < w: they hold each edge once.  BLOCK_ROWS
        >= m gives one block, also when n or m is 0."""
        indptr = self.indptr
        for lo, hi in _vertex_ranges(indptr):
            ws = self.indices[indptr[lo]:indptr[hi]]
            us = np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(indptr[lo:hi + 1]))
            upper = us < ws
            yield us[upper], ws[upper]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in canonical order."""
        us, ws = self.edge_arrays()
        return list(zip(us.tolist(), ws.tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        _check_vertex(v, self.n)
        i = np.searchsorted(row, v)
        return bool(i < row.shape[0] and row[i] == v)

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Build a canonical graph from 0-based edge pairs: a (k, 2) integer
        array, or any iterable of integer (u, w) pairs, read by _int_array,
        which refuses a bool.  Empty input builds an edgeless graph.

        Duplicate pairs and both orientations of an edge collapse to one
        undirected edge.  Self-loops are rejected, and so is an n outside
        0..MAX_VERTICES, before anything is allocated.

        The CSR is canonical by construction, so the graph skips the check
        that ``Graph(n, indptr, indices)`` runs; a test holds every output
        to that check instead.
        """
        _check_vertex_count(n)
        # a Python int from here on: a 32-bit numpy n would wrap n * n and
        # pick keys too narrow for it
        n = int(n)
        message = "edges must be (u, w) pairs of integers"
        pairs = _int_array(edges, message)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError(message)
        if np.any(pairs < 0) or np.any(pairs >= n):
            raise ValueError("edge endpoint out of range")
        u, w = pairs.reshape(-1, 2).T  # any empty shape
        if np.any(u == w):
            raise ValueError("self-loops are not allowed")
        # one key u * n + w per arc, both orientations, written and sorted in
        # place in one array; sorted keys are in (src, dst) order
        key = _key_dtype(n)
        nn = key(n)
        k = u.shape[0]
        keys = np.empty(2 * k, key)
        _write_keys(u, w, n, keys[:k])
        _write_keys(w, u, n, keys[k:])
        keys.sort()
        fresh = np.empty(2 * k, bool)
        fresh[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        if not fresh.all():  # a repeated edge
            keys = keys[fresh]
        del fresh  # not live beside the indices
        # row v starts at the first key of v * n or more; the last bound,
        # n * n, fits the key dtype
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=key) * nn).astype(np.int32)
        np.remainder(keys, nn, out=keys)
        # uint32 keys now hold ids below 2**16, so the int32 indices are a
        # view of them, frozen with their base; int64 keys are narrowed by a
        # copy
        keys.setflags(write=False)
        indices = keys.view(np.int32) if key is np.uint32 else keys.astype(np.int32)
        # sorted, deduplicated keys of both orientations give a sorted,
        # symmetric, loop-free CSR, so the fields are stored without
        # __post_init__: its check runs on every public Graph(...), and on
        # this path in test_from_edges_output_is_canonical
        g = object.__new__(cls)
        g._store(n, indptr, indices)
        return g


def _vertex_ranges(indptr: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive vertex ranges (lo, hi) that cover the vertices of a CSR
    and hold about 2 * BLOCK_ROWS arcs each, so about BLOCK_ROWS edges;
    BLOCK_ROWS is read at each call.  A range starts at the vertex that
    holds every (2 * BLOCK_ROWS)-th arc, so it takes one row more than 2 *
    BLOCK_ROWS arcs at most.  2 * BLOCK_ROWS >= the arc count gives one
    range, also when n is 0."""
    holders = np.searchsorted(indptr, np.arange(0, indptr[-1], 2 * BLOCK_ROWS), side="right") - 1
    bounds = [0, *np.unique(holders)[1:].tolist(), indptr.shape[0] - 1]
    return list(zip(bounds, bounds[1:]))


def _key_dtype(n: int) -> type:
    """The dtype of arc keys u * n + w on n vertices: uint32 while n * n
    fits it, so to n = 65,535, and int64 above that.  n must be a Python
    int: a 32-bit numpy n would wrap n * n and pick keys too narrow."""
    return np.uint32 if n * n <= np.iinfo(np.uint32).max else np.int64


def _write_keys(src: np.ndarray, dst: np.ndarray, n: int, out: np.ndarray) -> None:
    """out = src * n + dst, in out's key dtype, _key_dtype(n).  The ids are
    in 0..n-1, which every integer dtype holds, so they are read into the
    keys by an unsafe cast that changes no value; n becomes a numpy scalar
    of the key dtype, so numpy's older value-based promotion cannot widen
    the uint32 arithmetic."""
    key = out.dtype.type
    np.multiply(src, key(n), out=out, dtype=key, casting="unsafe")
    np.add(out, dst, out=out, dtype=key, casting="unsafe")


def _check_int(x: int, what: str) -> None:
    # a bool is an int to Python, so it is rejected by type, as an endpoint
    # is; numpy integers pass
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{what} {x!r} is not an integer")


def _check_vertex(v: int, n: int) -> None:
    # an id of a graph on n vertices: a negative one would index from the
    # end, and a bool is refused as _check_int refuses it
    _check_int(v, "vertex")
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} outside 0..{n - 1}")


def _is_real(x: float) -> bool:
    # a real number by type, so a str, None or a complex is refused before
    # any comparison, and a bool as _check_int refuses it; numpy floats and
    # ints pass, numpy's bool and 0-d arrays are no numbers.Real
    return isinstance(x, Real) and not isinstance(x, bool)


def _int_array(items, message: str) -> np.ndarray:
    """``items`` as an integer array, or ValueError(message).  An ndarray or a
    scalar is judged by its dtype, unless empty.  Any other iterable is listed
    once, and its values, in pairs too, are checked by type: no bool passes.
    Ragged input, which numpy cannot make an array of, gets the message too."""
    try:
        if not isinstance(items, np.ndarray) and isinstance(items, Iterable):
            items = list(items)
            if not {bool, np.bool_}.isdisjoint(map(type, np.asarray(items, dtype=object).flat)):
                raise ValueError(message)
        arr = np.asarray(items)
    except ValueError:
        raise ValueError(message) from None
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(message)
    return arr


def _check_seed(seed: int) -> None:
    _check_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed}")


def _check_vertex_count(n: int) -> None:
    # before any allocation: the CSR build allocates O(n) arrays
    _check_int(n, "vertex count")
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
    # keys once sorted, in from_edges's key dtype: uint32 while n * n fits
    key = _key_dtype(int(n))
    fwd = np.empty(src.shape[0], key)
    _write_keys(src, indices, n, fwd)
    rev = np.empty(src.shape[0], key)
    _write_keys(indices, src, n, rev)
    del src
    rev.sort()
    if not np.array_equal(fwd, rev):
        raise ValueError("adjacency is not symmetric")


def crown_graph(pairs: int) -> Graph:
    """Complete bipartite graph on parts of size ``pairs`` minus the perfect
    matching: vertex i in part U (0..n-1) is adjacent to n+j iff i != j.

    Every vertex has degree n-1; the graph is bipartite with n(n-1) edges.
    """
    _check_int(pairs, "pair count")
    n = int(pairs)  # a narrow numpy int would wrap 2 * n
    if n < 2:
        raise ValueError("crown graph needs at least 2 vertex pairs")
    _check_vertex_count(2 * n)  # before np.eye allocates n * n
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    return Graph.from_edges(2 * n, np.column_stack((i, n + j)))


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a seeded generator: each unordered pair is an edge with
    probability p.  The same (n, p, seed) yields the same graph everywhere.
    """
    _check_vertex_count(n)
    if n < 1:
        raise ValueError("need at least one vertex")
    if not _is_real(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be a number in [0, 1], got {p!r}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return Graph.from_edges(n, np.column_stack((iu[mask], ju[mask])))


def star_graph(leaves: int) -> Graph:
    """A hub joined to ``leaves`` vertices: vertex 0 to each of 1..leaves."""
    _check_int(leaves, "leaf count")
    leaves = int(leaves)  # a narrow numpy int would wrap leaves + 1
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    _check_vertex_count(leaves + 1)  # before the leaf ids are allocated
    leaf = np.arange(1, leaves + 1)
    hub = np.zeros_like(leaf)
    return Graph.from_edges(leaves + 1, np.column_stack((hub, leaf)))


def barabasi_albert(n: int, k: int, seed: int) -> Graph:
    """Preferential attachment (Barabasi & Albert 1999) with a seeded
    generator: vertices k..n-1 arrive in turn, and each joins k distinct
    earlier vertices, picked with probability proportional to their degree.
    The first arrival joins vertices 0..k-1, which start with no edges."""
    _check_vertex_count(n)
    _check_int(k, "k")
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    _check_seed(seed)
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
