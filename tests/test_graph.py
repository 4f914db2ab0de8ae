import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from util import complete_graph
from wfcolor.graph import Graph, crown_graph, random_gnp


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
