import copy
import hashlib
import itertools
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from util import complete_graph, path_graph
from wfcolor import graph, solve
from wfcolor.coloring import validate
from wfcolor.dimacs import parse_dimacs
from wfcolor.graph import (Graph, _check_canonical, barabasi_albert,
                           crown_graph, random_gnp, star_graph)


def test_from_edges_dedupes_and_symmetrizes():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
    assert g.m == 2
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.has_edge(1, 0) and g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert type(g.has_edge(1, 0)) is bool and type(g.has_edge(0, 2)) is bool


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
    iter([(0, True)]),  # from an iterator too
    3,  # not an iterable of pairs at all
    [(0, 1, 2), (1, 2)],  # ragged: numpy cannot make an array of it
])
def test_from_edges_rejects_non_integer_pairs(edges):
    with pytest.raises(ValueError, match="pairs of integers"):
        Graph.from_edges(4, edges)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_from_edges_takes_any_integer_dtype(dtype):
    g = Graph.from_edges(3, np.array([[0, 1], [2, 1]], dtype=dtype))
    assert g.edges() == [(0, 1), (1, 2)]
    # a numpy integer is a vertex count too
    assert Graph.from_edges(np.int64(3), g.edges()).edges() == g.edges()


@pytest.mark.parametrize("n", [-1, 2**31, 2**63 - 1, 10**20, True, 2.5, 2.0])
def test_vertex_count_outside_int32_is_rejected_up_front(n):
    # at n = 2**31 the CSR build alone would allocate tens of GB; a bool or
    # a float is no count at all, and is refused by type before numpy casts
    # it
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex count"):
            Graph.from_edges(n, [])
        with pytest.raises(ValueError, match="vertex count"):
            Graph(n, np.array([0]), np.array([], dtype=np.int32))
        with pytest.raises(ValueError, match="vertex count"):
            random_gnp(n, 0.5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_from_edges_empty_input_is_edgeless():
    for edges in ([], (), np.array([]), np.empty((0, 2)), np.empty((0, 2), dtype=np.uint8),
                  np.empty((0, 2), dtype=np.uint64), np.empty((0, 2), dtype=np.int32)):
        g = Graph.from_edges(3, edges)
        assert g.n == 3 and g.m == 0
        assert g.indptr.tobytes() == np.zeros(4, np.int32).tobytes()
        assert g.indices.dtype == np.int32 and g.indices.size == 0


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint16,
                                   np.uint32, np.uint64])
def test_from_edges_reads_every_integer_width(dtype):
    # the pairs in reverse, so every key is written, sorted and deduplicated
    g = random_gnp(100, 0.3, 2)
    pairs = np.column_stack(g.edge_arrays())[::-1]
    h = Graph.from_edges(g.n, pairs.astype(dtype))
    assert h.indptr.tobytes() == g.indptr.tobytes()
    assert h.indices.tobytes() == g.indices.tobytes()


def test_from_edges_keys_do_not_overflow_narrow_ids():
    # u * n + w passes 2**31 here: the keys are int64 whatever the width of
    # the ids or of n, whose square wraps in 32 bits
    for n in (70_000, np.int32(70_000), np.uint32(70_000)):
        for dtype in (np.int32, np.uint32, np.uint64):
            g = Graph.from_edges(n, np.array([[69_999, 69_998], [0, 69_999]], dtype))
            assert g.edges() == [(0, 69_999), (69_998, 69_999)]


@pytest.mark.parametrize("n", [65_535, 65_536])
def test_from_edges_key_width_boundary(n):
    # keys are uint32 while n * n fits, so to n = 65,535, and the indices a
    # view of them; at 65,536 they are int64, narrowed by a copy.  The
    # edges reach the largest key, (n - 1) * n + n - 2.  A 32-bit numpy n,
    # whose n * n wraps, picks the same keys as a Python int
    pairs = [(n - 1, n - 2), (0, n - 1), (n - 2, n - 3), (n - 1, 0), (1, n - 2)]
    indptr, indices = _csr_by_edge_set(n, pairs)
    for count, dtype in itertools.product((n, np.int32(n), np.uint32(n)),
                                          (np.int32, np.uint32, np.int64, np.uint64)):
        g = Graph.from_edges(count, np.array(pairs, dtype))
        assert g.indptr.tobytes() == indptr.tobytes()
        assert g.indices.tobytes() == indices.tobytes()
        base = g.indices.base
        assert base.dtype == np.uint32 if n == 65_535 else base is None


@pytest.mark.parametrize("n", [65_535, 65_536, 65_537])
def test_canonical_check_key_width_boundary(n):
    # the symmetry check's keys are from_edges's: uint32 to n = 65,535,
    # int64 above.  Row n - 1 is [0, n - 2]; with its 0 made a 1, rows 0
    # and n - 1 and rows 1 and n - 1 each hold an arc the other lacks.  A
    # lone arc (0, n - 1) lacks its reverse too; at n = 65,537 their keys,
    # 2**16 and 2**32 + 2**16, agree in 32 bits, so keys that narrow would
    # pass it.  A 32-bit numpy n, whose n * n wraps, is checked as a Python
    # int
    indptr, indices = _csr_by_edge_set(n, [(n - 1, n - 2), (0, n - 1), (1, n - 2)])
    bad = indices.copy()
    bad[indptr[n - 1]] = 1
    lone = np.ones(n + 1, np.int32)
    lone[0] = 0
    for count in (n, np.int32(n), np.uint32(n)):
        assert Graph(count, indptr, indices).m == 3
        for ptr, ids in ((indptr, bad), (lone, np.array([n - 1], np.int32))):
            with pytest.raises(ValueError, match="adjacency is not symmetric"):
                Graph(count, ptr, ids)


def test_canonical_check_peaks_under_26_mb():
    # gnp(2000, 0.5): 999,736 edges, 7.6 MiB of CSR.  The check holds int32
    # sources and uint32 forward and reverse keys for all 2m arcs, three
    # CSRs' bytes: 22.9 MiB.  With int64 keys it read 38.2 MiB, and an
    # unpickle, which also holds the unpickled arrays, 45.8
    g = random_gnp(2000, 0.5, 1)
    blob = pickle.dumps(g)
    csr = g.indptr.nbytes + g.indices.nbytes
    for make, bound in ((lambda: Graph(g.n, g.indptr, g.indices), 0),
                        (lambda: copy.copy(g), 0), (lambda: pickle.loads(blob), csr)):
        tracemalloc.start()
        try:
            h = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.indices.tobytes() == g.indices.tobytes()
        del h
        assert peak < 26 * 2**20 + bound


def test_from_edges_builds_in_little_memory():
    # 122,608 edges: one uint32 key array of both orientations is 1.0 MB,
    # the indices are a view of it, and the dedupe mask adds 0.25 MB: 1.2 MiB
    # for int64 and int32 pairs alike.  int64 keys and int32 indices made
    # from them took 2.8 MiB, and an int64 copy of the int32 pairs 1.9 MB
    # more; checking that CSR again would add int32 sources and two int64
    # key arrays, 4.7 MB; a copy per step (concatenate, sort, dedupe,
    # modulo) took 11 MB
    g = random_gnp(700, 0.5, 408)
    us, ws = g.edge_arrays()
    for dtype in (np.int64, np.int32):
        pairs = np.column_stack((us, ws)).astype(dtype)
        tracemalloc.start()
        try:
            h = Graph.from_edges(g.n, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.m == 122_608
        assert h.indptr.tobytes() == g.indptr.tobytes()
        assert h.indices.tobytes() == g.indices.tobytes()
        assert peak < 1.5 * 2**20


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
    assert us.dtype == ws.dtype == np.int32  # the CSR's own dtype
    assert list(zip(us.tolist(), ws.tolist())) == edges
    # blocks of vertex ranges of about 2 * rows arcs, in order, hold the
    # same edges; one block per holder of every (2 * rows)-th arc at most
    for rows in (1, 2, 3, max(g.m, 1)):
        with mock.patch.object(graph, "BLOCK_ROWS", rows):
            blocks = list(g.edge_blocks())
        assert 1 <= len(blocks) <= max(1, -(-g.m // rows))  # ceil(m / rows)
        assert [(u, w) for us, ws in blocks for u, w in zip(us.tolist(), ws.tolist())] == edges


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


@pytest.mark.parametrize("make, count", [(star_graph, 2**31 - 1),
                                         (crown_graph, 2**30)],
                         ids=["star", "crown"])
def test_generators_check_the_vertex_count_before_allocating(make, count):
    # star(2**31 - 1) has 2**31 vertices and crown(2**30) 2**31: their
    # np.arange or np.eye would fill gigabytes before from_edges refused n
    refuse = mock.Mock(side_effect=AssertionError("allocated before the check"))
    with mock.patch.object(np, "arange", refuse), \
            mock.patch.object(np, "eye", refuse):
        with pytest.raises(ValueError, match="vertex count"):
            make(count)


def test_generators_read_narrow_numpy_counts_as_ints():
    # 32767 leaves make 32768 vertices and 100 pairs 200, past int16 and
    # int8: the vertex count must not wrap in the count's own type
    assert star_graph(np.int16(32767)).n == 32768
    assert crown_graph(np.int8(100)).n == 200


@pytest.mark.parametrize("v", [-1, 3, True, 1.0, np.int64(-1)],
                         ids=["-1", "n", "True", "1.0", "int64(-1)"])
def test_accessors_refuse_ids_outside_the_graph(v):
    # a negative id would read a row from the end, a bool or a float would
    # pass for an int, and n would raise IndexError
    g = path_graph(3)
    for call in (lambda: g.neighbors(v), lambda: g.has_edge(v, 0),
                 lambda: g.has_edge(0, v)):
        with pytest.raises(ValueError, match=r"outside 0\.\.2|not an integer"):
            call()
    assert g.neighbors(np.int32(1)).tolist() == [0, 2]
    assert g.has_edge(np.int64(2), 1) and not g.has_edge(0, 2)


@pytest.mark.parametrize("make, args", [
    (crown_graph, (2.5,)), (crown_graph, (True,)), (star_graph, (True,)),
    (star_graph, (3.0,)), (barabasi_albert, (5.5, 2, 0)),
    (barabasi_albert, (True, 1, 0)), (barabasi_albert, (5, 2.0, 0)),
    (random_gnp, (5, 0.5, 2.5)), (random_gnp, (5, 0.5, True)),
    (barabasi_albert, (5, 2, 2.5)), (barabasi_albert, (5, 2, True))])
def test_generators_reject_counts_that_are_not_integers(make, args):
    # a bool or float count or seed is refused by type, as
    # _check_vertex_count does; numpy integers pass
    with pytest.raises(ValueError, match="is not an integer"):
        make(*args)
    # the bad argument is the last bool or float (gnp's p is a float)
    bad = max(i for i, a in enumerate(args) if isinstance(a, (bool, float)))
    numpy_args = args[:bad] + (np.int64(3),) + args[bad + 1:]
    plain_args = args[:bad] + (3,) + args[bad + 1:]
    assert make(*numpy_args).edges() == make(*plain_args).edges()


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


@given(case=_edge_lists(),
       dtype=st.sampled_from([np.int8, np.uint8, np.int16, np.int32, np.uint32,
                              np.int64, np.uint64]))
@example(case=(0, []), dtype=np.int64)
@example(case=(1, []), dtype=np.uint8)
@example(case=(25, []), dtype=np.int8)
@example(case=(65_535, [(65_534, 65_533), (0, 65_534), (65_534, 0)]), dtype=np.uint32)
@example(case=(65_536, [(65_535, 65_534), (0, 65_535), (65_535, 0)]), dtype=np.int32)
def test_from_edges_output_is_canonical(case, dtype):
    # from_edges skips the check that Graph(n, indptr, indices) runs, since
    # its CSR is canonical by construction; this holds it to that check
    n, pairs = case
    for edges in (pairs, np.array(pairs, dtype=dtype).reshape(-1, 2)):
        g = Graph.from_edges(n, edges)
        _check_canonical(g.n, g.indptr, g.indices)


def test_gnp_rejects_bad_probability():
    with pytest.raises(ValueError):
        random_gnp(5, -0.1, seed=0)
    with pytest.raises(ValueError):
        random_gnp(5, 1.5, seed=0)
    with pytest.raises(ValueError):
        random_gnp(0, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_gnp(5, True, seed=0)  # would build K5, as p = 1
    with pytest.raises(ValueError):
        random_gnp(5, np.True_, seed=0)
    # not a real number: refused by type, not by a failed comparison
    for p in ("0.5", None, 0.5 + 0j, np.array(0.5)):
        with pytest.raises(ValueError, match="edge probability must be a "
                                             "number in"):
            random_gnp(5, p, seed=0)


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
    pairs = [(0, 1), (2, 1), (1, 0), (3, 0)]
    built = [Graph.from_edges(4, pairs), Graph.from_edges(4, np.array(pairs)),
             random_gnp(12, 0.5, 3), crown_graph(3), star_graph(4),
             barabasi_albert(12, 2, 3),
             parse_dimacs("p edge 4 3\ne 1 2\ne 2 3\ne 4 1\n")]
    for g in built:
        for a in (g.indptr, g.indices):
            with pytest.raises(ValueError):
                a[-1] = 0
        for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert h.n == g.n
            assert np.array_equal(h.indptr, g.indptr)
            assert np.array_equal(h.indices, g.indices)
            for a in (h.indptr, h.indices):
                with pytest.raises(ValueError):
                    a[-1] = 0


def test_a_numpy_vertex_count_is_stored_as_an_int():
    # solve's heap keys reach n * n, which wraps for a 32-bit numpy n
    for n in (np.int32(70_000), np.uint32(70_000)):
        g = Graph.from_edges(n, [(0, 69_999), (69_998, 69_999), (5, 69_999)])
        h = Graph(n, g.indptr, g.indices)
        for x in (g, h):
            assert type(x.n) is int and x.n == 70_000
        assert validate(h, solve(h).coloring).ok


@pytest.mark.parametrize("make, layout", [
    (lambda: crown_graph(3), "heap"), (lambda: random_gnp(100, 0.05, 1), "heap"),
    (lambda: random_gnp(300, 0.6, 1), "dense")], ids=["crown3", "gnp100", "gnp300"])
def test_a_byte_swapped_csr_solves_as_its_native_graph(make, layout):
    # the heap pass reads the CSR through memoryviews, which refuse a
    # byte-swapped format
    g = make()
    h = Graph(g.n, g.indptr.astype(np.dtype(np.int32).newbyteorder()),
              g.indices.astype(np.dtype(np.int64).newbyteorder()))
    ours, theirs = solve(h), solve(g)
    assert ours.stats == theirs.stats and ours.stats["layout"] == layout
    assert ours.coloring.assignment.tobytes() == theirs.coloring.assignment.tobytes()


def test_graph_keeps_its_own_arrays():
    # a view's base stays writable, so the graph must not keep the view
    base = np.array([0, 1, 2, 1, 0], np.int32)
    g = Graph(2, base[:3], base[3:])
    base[3] = 0
    assert g.indices.tolist() == [1, 0]
    # and the caller's own arrays are left writable
    indptr, indices = np.array([0, 1, 2]), np.array([1, 0])
    Graph(2, indptr, indices)
    assert indptr.flags.writeable and indices.flags.writeable
    # one stored form, native int32, whatever signed dtype and byte order
    # the caller's CSR came in
    g = random_gnp(30, 0.3, 1)
    for dtype in (">i4", ">i8", np.int16, np.int64):
        h = Graph(g.n, g.indptr.astype(dtype), g.indices.astype(dtype))
        for x in (h, copy.copy(h), pickle.loads(pickle.dumps(h))):
            for a, b in ((x.indptr, g.indptr), (x.indices, g.indices)):
                assert a.dtype == np.dtype(np.int32) and a.dtype.isnative
                assert not a.flags.writeable and a.tobytes() == b.tobytes()


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
