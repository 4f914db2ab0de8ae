import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from util import complete_graph
from wfcolor.graph import (Graph, barabasi_albert, crown_graph, random_gnp,
                           star_graph)


def test_from_edges_dedupes_and_symmetrizes():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
    assert g.m == 2
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.has_edge(1, 0) and g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_from_edges_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


@pytest.mark.parametrize("edges", [
    [(0.5, 1.7)],  # a cast would truncate floats to (0, 1)
    np.array([[0.9, 2.2]]),  # and to (0, 2)
    [0, 1, 2, 3],  # a reshape would pair these into (0, 1), (2, 3)
    [(0, 1, 2), (1, 2, 3)],  # and these into three edges
    [(True, False)],  # a cast would read bools as (1, 0)
    [(True, 2)],  # and a bool among ints as the edge (1, 2)
])
def test_from_edges_rejects_non_integer_pairs(edges):
    with pytest.raises(ValueError, match="pairs of integers"):
        Graph.from_edges(4, edges)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_from_edges_takes_any_integer_dtype(dtype):
    g = Graph.from_edges(3, np.array([[0, 1], [2, 1]], dtype=dtype))
    assert g.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize("n", [-1, 2**31, 2**63 - 1, 10**20])
def test_vertex_count_outside_int32_is_rejected_up_front(n):
    # at n = 2**31 the CSR build alone would allocate tens of GB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex count"):
            Graph.from_edges(n, [])
        with pytest.raises(ValueError, match="vertex count"):
            Graph(n, np.array([0]), np.array([], dtype=np.int32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_from_edges_empty_input_is_edgeless():
    for edges in ([], (), np.array([]), np.empty((0, 2), dtype=np.uint8)):
        g = Graph.from_edges(3, edges)
        assert g.n == 3 and g.m == 0


def test_from_edges_builds_and_checks_in_little_memory():
    # 122,608 edges: one int64 key array of both orientations is 1.9 MB, and
    # the canonical check's int32 sources and two int64 key arrays 4.7 MB;
    # a copy per step (concatenate, sort, dedupe, modulo) took 11 MB
    g = random_gnp(700, 0.5, 408)
    us, ws = g.edge_arrays()
    pairs = np.column_stack((us, ws)).astype(np.int64)
    tracemalloc.start()
    try:
        h = Graph.from_edges(g.n, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.m == 122_608
    assert h.indptr.tobytes() == g.indptr.tobytes()
    assert h.indices.tobytes() == g.indices.tobytes()
    assert peak < 7 * 2**20


def test_degrees_and_max_degree():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degrees.tolist() == [3, 1, 1, 1]
    assert g.max_degree == 3
    assert Graph.from_edges(5, []).max_degree == 0


def test_edges_listing_is_canonical():
    g = complete_graph(3)
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def _edges_by_neighbor_loop(g):
    # the per-vertex loop Graph.edges() replaced, kept as the reference
    return [(u, int(w)) for u in range(g.n) for w in g.neighbors(u) if u < w]


@given(kind=st.sampled_from(["gnp", "crown", "edgeless", "single"]),
       n=st.integers(2, 40), p=st.sampled_from([0.05, 0.3, 0.7, 1.0]),
       seed=st.integers(0, 10_000))
def test_edges_match_neighbor_loop(kind, n, p, seed):
    g = {"gnp": lambda: random_gnp(n, p, seed),
         "crown": lambda: crown_graph(n),
         "edgeless": lambda: Graph.from_edges(n, []),
         "single": lambda: Graph.from_edges(1, [])}[kind]()
    edges = g.edges()
    assert edges == _edges_by_neighbor_loop(g)
    assert all(type(u) is int and type(w) is int for u, w in edges)
    us, ws = g.edge_arrays()
    assert list(zip(us.tolist(), ws.tolist())) == edges


def test_crown_4_shape():
    g = crown_graph(4)
    assert g.n == 8
    assert g.m == 12
    assert set(g.degrees.tolist()) == {3}


def test_crown_2_is_a_perfect_matching():
    # n(n-1) = 2 edges, every vertex degree n-1 = 1: the two cross pairs
    g = crown_graph(2)
    assert g.n == 4
    assert g.m == 2
    assert g.edges() == [(0, 3), (1, 2)]
    assert set(g.degrees.tolist()) == {1}


def test_crown_5_edge_count():
    g = crown_graph(5)
    assert g.n == 10
    assert g.m == 20  # n * (n - 1)


def test_crown_requires_two_pairs():
    with pytest.raises(ValueError):
        crown_graph(1)
    with pytest.raises(ValueError):
        crown_graph(0)


@pytest.mark.parametrize("n", range(2, 11))
def test_crown_is_regular_and_bipartite(n):
    g = crown_graph(n)
    assert set(g.degrees.tolist()) == {n - 1}
    assert g.m == n * (n - 1)
    # 2-color by BFS: possible iff bipartite
    side = np.full(g.n, -1)
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.neighbors(u):
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    queue.append(int(w))
                else:
                    assert side[w] != side[u]


def test_crown_edge_membership_rule():
    n = 6
    g = crown_graph(n)
    for i in range(n):
        for j in range(n):
            assert g.has_edge(i, n + j) == (i != j)


def test_gnp_extremes():
    assert random_gnp(10, 0.0, seed=3).m == 0
    full = random_gnp(10, 1.0, seed=3)
    assert full.m == 45
    assert full.max_degree == 9


def test_gnp_is_deterministic():
    a = random_gnp(50, 0.5, seed=7)
    b = random_gnp(50, 0.5, seed=7)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    c = random_gnp(50, 0.5, seed=8)
    assert not np.array_equal(a.indices, c.indices)


def test_star_shape():
    g = star_graph(6)
    assert g.n == 7 and g.m == 6
    assert g.degrees.tolist() == [6, 1, 1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        star_graph(0)


@pytest.mark.parametrize("n, k, seed", [(2, 1, 0), (10, 1, 3), (40, 3, 1),
                                        (200, 5, 9)])
def test_ba_joins_each_arrival_to_k_earlier_vertices(n, k, seed):
    g = barabasi_albert(n, k, seed)
    assert g.n == n and g.m == (n - k) * k
    for v in range(n):
        earlier = int((g.neighbors(v) < v).sum())
        assert earlier == (0 if v < k else k)


def test_ba_is_deterministic_and_grows_hubs():
    a = barabasi_albert(2000, 2, seed=4)
    assert a.edges() == barabasi_albert(2000, 2, seed=4).edges()
    assert a.edges() != barabasi_albert(2000, 2, seed=5).edges()
    # attachment favors high degree: with a uniform choice of earlier
    # vertices the oldest would expect about 2 + 2 ln(2000), or 17, edges
    assert a.max_degree > 50


@pytest.mark.parametrize("n, k", [(5, 0), (5, 5), (1, 1), (3, -1)])
def test_ba_rejects_bad_sizes(n, k):
    with pytest.raises(ValueError):
        barabasi_albert(n, k, seed=0)


# sha256 of the little-endian int32 indptr and indices, recorded before the
# generators switched from tuple lists to edge arrays: the (n, p, seed) ->
# graph mapping must not move
@pytest.mark.parametrize("build, indptr_sha, indices_sha", [
    (lambda: random_gnp(50, 0.5, seed=7),
     "a7182ca640607d7eb7f1bf32b66624b4ef94f72875d6548afea406cd1ab63741",
     "1b928defe1cb7b2dda37021505b559a62adf8dd0d082325af3fb292aac63849a"),
    (lambda: random_gnp(300, 0.02, seed=11),
     "0e16489831dd1ba2aacf4863c81a86897e88bfb2eb8e44039d6ffc087cf132e8",
     "cca36436c8bf4872c5198f82b12d33f8e378357fc5c78da197f0d4a4691aa26a"),
    (lambda: random_gnp(40, 1.0, seed=0),
     "7a96d19ba5957ef16890aa4f161b0185c4a7e4df9620ca2cb45894a5b94102d6",
     "5e2649d773a621cc591ca40a4b0caca8e31e0b4a034e7b70612ae80797dbcb69"),
    (lambda: random_gnp(6, 0.0, seed=2),
     "3addfb141cd7c9c4c6543a82191a3707ac29c7a041217782e61d4d91c691aee8",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: crown_graph(2),
     "e528f4309e1413e6bc35aea5d8db8519384d2fcc33f9dd5d1126d73f104cf92a",
     "e19cfc999da3dbc38ee6a0ed0e78e5ff402e920daac978b67b9e822d2e62b975"),
    (lambda: crown_graph(13),
     "db2f0391093edc96eb4adae849ddfb1058a086510d73c7ebc5942d1e5f93dde6",
     "43dd092c984d883b9c2c896ae15a49e32a2695ef1602efa9c9bbba0a6755211c"),
])
def test_generated_csr_is_pinned(build, indptr_sha, indices_sha):
    g = build()
    assert g.indptr.dtype == g.indices.dtype == np.dtype("<i4")
    assert hashlib.sha256(g.indptr.tobytes()).hexdigest() == indptr_sha
    assert hashlib.sha256(g.indices.tobytes()).hexdigest() == indices_sha


def _csr_by_edge_set(n, pairs):
    # reference CSR: a set of undirected edges, then each sorted row in turn
    edges = {(min(u, w), max(u, w)) for u, w in pairs}
    rows = [sorted([w for u, w in edges if u == v] + [u for u, w in edges if w == v])
            for v in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    return indptr, np.array([w for r in rows for w in r], dtype=np.int32)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 25))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=60))
    # duplicates and reversed copies of some pairs
    extra = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(extra), max_size=len(extra)))
    pairs += [(w, u) if f else (u, w) for (u, w), f in zip(extra, flips)]
    return n, draw(st.permutations(pairs))


@given(case=_edge_lists())
def test_from_edges_matches_edge_set_reference(case):
    n, pairs = case
    indptr, indices = _csr_by_edge_set(n, pairs)
    for edges in (pairs, np.array(pairs, dtype=np.int64).reshape(-1, 2)):
        g = Graph.from_edges(n, edges)
        assert g.indptr.dtype == g.indices.dtype == np.int32
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)


def test_gnp_rejects_bad_probability():
    with pytest.raises(ValueError):
        random_gnp(5, -0.1, seed=0)
    with pytest.raises(ValueError):
        random_gnp(5, 1.5, seed=0)
    with pytest.raises(ValueError):
        random_gnp(0, 0.5, seed=0)


@given(n=st.integers(1, 40), p=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]),
       seed=st.integers(0, 10_000))
def test_generated_graphs_are_canonical(n, p, seed):
    g = random_gnp(n, p, seed)
    for v in range(g.n):
        row = g.neighbors(v)
        assert np.all(np.diff(row) > 0)  # strictly increasing, no duplicates
        assert v not in row
        for w in row:
            assert g.has_edge(int(w), v)  # symmetry


def test_graph_arrays_are_frozen():
    g = crown_graph(3)
    with pytest.raises(ValueError):
        g.indices[0] = 0


_SHAPE = "indptr and indices must be 1-D signed integer arrays"
_MALFORMED = "malformed CSR index"


@pytest.mark.parametrize("n, indptr, indices, message", [
    (2, [0, 1, 2], [1, 0], _SHAPE),  # lists, not arrays
    (2, np.array([0, 1, 2]), np.array([1.0, 0.0]), _SHAPE),
    (2, np.array([[0, 1, 2]]), np.array([1, 0]), _SHAPE),
    (2, np.array([0, 1, 2]), np.array([1, 0], dtype=np.uint32), _SHAPE),
    (2, np.array([0, 1, 2]), np.array([True, False]), _SHAPE),
    (3, np.array([0, 1, 2]), np.array([1, 0]), _MALFORMED),  # length != n + 1
    (2, np.array([1, 1, 2]), np.array([1, 0]), _MALFORMED),  # indptr[0] != 0
    (2, np.array([0, 1, 1]), np.array([1, 0]), _MALFORMED),  # indptr[-1] != len
    (3, np.array([0, 2, 1, 2]), np.array([1, 2]), _MALFORMED),  # decreasing
    (2, np.array([0, 2, 0]), np.array([], dtype=np.int32), _MALFORMED),
    (2, np.array([0, 1, 2]), np.array([1, 2]), "neighbor id out of range"),
    (2, np.array([0, 1, 2]), np.array([-1, 0]), "neighbor id out of range"),
    (3, np.array([0, 2, 2, 4]), np.array([1, 1, 1, 0]),
     "adjacency of vertex 0 not strictly increasing"),
    (3, np.array([0, 1, 2, 4]), np.array([1, 0, 1, 0]),
     "adjacency of vertex 2 not strictly increasing"),
    (3, np.array([0, 1, 2, 3]), np.array([1, 1, 2]), "self-loop at vertex 1"),
    # the lowest offending vertex is named, whichever the fault
    (3, np.array([0, 1, 2, 4]), np.array([1, 1, 1, 0]), "self-loop at vertex 1"),
    # on one vertex, row order wins over the self-loop
    (2, np.array([0, 2, 2]), np.array([1, 0]),
     "adjacency of vertex 0 not strictly increasing"),
    (2, np.array([0, 1, 1]), np.array([1]), "adjacency is not symmetric"),
])
def test_csr_rejections(n, indptr, indices, message):
    with pytest.raises(ValueError) as info:
        Graph(n, indptr, indices)
    assert str(info.value) == message
    for a in (indptr, indices):  # a rejected input is left as it was
        assert not isinstance(a, np.ndarray) or a.flags.writeable


def _check_by_vertex_loop(n, indptr, indices):
    """The per-vertex canonical check that the whole-array one replaced, kept
    as the reference; returns the error message, or None if the CSR passes."""
    if indptr.shape[0] != n + 1 or indptr[0] != 0 or indptr[-1] != indices.shape[0]:
        return "malformed CSR index"
    if indices.shape[0] == 0:
        return None
    if indices.min() < 0 or indices.max() >= n:
        return "neighbor id out of range"
    for v in range(n):
        row = indices[indptr[v]:indptr[v + 1]]
        if row.shape[0] == 0:
            continue
        if np.any(np.diff(row) <= 0):
            return f"adjacency of vertex {v} not strictly increasing"
        if np.any(row == v):
            return f"self-loop at vertex {v}"
    src = np.repeat(np.arange(n), np.diff(indptr))
    fwd = src * n + indices
    rev = indices.astype(np.int64) * n + src
    if not np.array_equal(np.sort(fwd), np.sort(rev)):
        return "adjacency is not symmetric"
    return None


@given(n=st.integers(1, 30), p=st.sampled_from([0.1, 0.3, 0.7, 1.0]),
       seed=st.integers(0, 10_000),
       kind=st.sampled_from(["overwrite", "swap", "reverse_tail", "out_of_range"]),
       a=st.integers(0, 10**6), b=st.integers(0, 10**6), value=st.integers(-2, 40))
def test_canonical_check_matches_vertex_loop(n, p, seed, kind, a, b, value):
    g = random_gnp(n, p, seed)
    indptr, indices = g.indptr.copy(), g.indices.copy()
    if indices.size:
        i, j = a % indices.size, b % indices.size
        if kind == "overwrite":
            indices[i] = value % n
        elif kind == "swap":
            indices[i], indices[j] = indices[j], indices[i]
        elif kind == "reverse_tail":
            indices[i:] = indices[i:][::-1].copy()
        else:
            indices[i] = -1 if value < 0 else n + value
    expected = _check_by_vertex_loop(n, indptr, indices)
    try:
        Graph(n, indptr, indices)
        got = None
    except ValueError as e:
        got = str(e)
    assert got == expected
