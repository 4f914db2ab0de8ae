import hashlib
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from util import complete_graph, cycle_graph
from wfcolor.baselines import (dsatur, iterated_greedy, resolve_order, rlf,
                               xorshift32)
from wfcolor.coloring import validate
from wfcolor.exact import exact_chromatic
from wfcolor.graph import (Graph, barabasi_albert, crown_graph, random_gnp,
                           star_graph)


# -- iterated greedy ----------------------------------------------------------

def test_greedy_triangle_any_order():
    g = complete_graph(3)
    for order in ("degree", "natural", [2, 0, 1]):
        assert iterated_greedy(g, order).k == 3


def test_greedy_crown_interleaved_is_worst_case():
    g = crown_graph(4)
    interleaved = [0, 4, 1, 5, 2, 6, 3, 7]  # u1, v1, u2, v2, ...
    assert iterated_greedy(g, interleaved).k == 4


def test_greedy_crown_part_by_part_is_optimal():
    g = crown_graph(4)
    assert iterated_greedy(g, list(range(8))).k == 2


def test_greedy_respects_max_degree_bound():
    for seed in range(30):
        g = random_gnp(30, [0.2, 0.5, 0.8][seed % 3], seed=seed)
        r = iterated_greedy(g)
        assert r.k <= g.max_degree + 1
        assert validate(g, r.coloring).ok


def test_greedy_explicit_order_is_deterministic():
    g = random_gnp(20, 0.5, seed=4)
    order = list(np.random.default_rng(1).permutation(20))
    a = iterated_greedy(g, order)
    b = iterated_greedy(g, order)
    assert np.array_equal(a.coloring.assignment, b.coloring.assignment)


def test_resolve_order_rejects_non_permutations():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        resolve_order(g, [0, 1])
    with pytest.raises(ValueError):
        resolve_order(g, [0, 1, 1])
    with pytest.raises(ValueError):
        resolve_order(g, "best")


def test_resolve_order_rejects_non_integer_orders():
    g = complete_graph(4)
    # an int cast would turn these into [0, 1, 2, 3] and [1, 0]
    with pytest.raises(ValueError):
        resolve_order(g, [0.9, 1.9, 2.2, 3.7])
    with pytest.raises(ValueError):
        resolve_order(complete_graph(2), [True, False])
    with pytest.raises(ValueError):
        resolve_order(complete_graph(2), [True, 0])  # a bool among ints
    with pytest.raises(ValueError):
        resolve_order(g, np.arange(4, dtype=np.float64))
    with pytest.raises(ValueError):
        resolve_order(g, ["0", "1", "2", "3"])


def test_resolve_order_accepts_integer_orders():
    g = complete_graph(4)
    for order in ([3, 1, 0, 2], (3, 1, 0, 2), np.array([3, 1, 0, 2], np.uint8),
                  list(np.array([3, 1, 0, 2], np.int64))):
        arr = resolve_order(g, order)
        assert arr.dtype == np.int32 and arr.tolist() == [3, 1, 0, 2]
    # the empty order of the 0-vertex graph
    empty = Graph.from_edges(0, [])
    assert resolve_order(empty, []).shape == (0,)
    assert iterated_greedy(empty, []).k == 0


def test_degree_order_highest_first():
    g = star_graph(3)
    assert resolve_order(g, "degree").tolist() == [0, 1, 2, 3]
    # ties go to the lowest id
    for seed in range(10):
        g = random_gnp(30, 0.2, seed=seed)
        degrees = g.degrees.tolist()
        expected = sorted(range(g.n), key=lambda v: (-degrees[v], v))
        order = resolve_order(g, "degree")
        assert order.dtype == np.int32 and order.tolist() == expected


# -- dsatur -------------------------------------------------------------------

def test_dsatur_clique():
    assert dsatur(complete_graph(4)).k == 4


def test_dsatur_crown():
    g = crown_graph(4)
    r = dsatur(g)
    assert r.k == 2
    assert validate(g, r.coloring).ok


def test_dsatur_odd_cycle():
    assert dsatur(cycle_graph(5)).k == 3


def test_dsatur_is_deterministic():
    g = random_gnp(30, 0.5, seed=2)
    assert np.array_equal(dsatur(g).coloring.assignment,
                          dsatur(g).coloring.assignment)


def test_dsatur_neighbor_count_mode():
    for seed in range(10):
        g = random_gnp(25, 0.4, seed=seed)
        r = dsatur(g, saturation="count")
        assert validate(g, r.coloring).ok
        assert r.k <= g.max_degree + 1
    with pytest.raises(ValueError):
        dsatur(g, saturation="other")


def test_dsatur_memory_does_not_grow_with_n_times_degree():
    """A star's hub has degree n: an n x max_degree table of the colors
    around each vertex would take (n + 1)(n + 2) bytes even as uint8, about
    0.64 MB here; one int bitset per vertex keeps the peak near O(n)."""
    g = star_graph(800)
    dsatur(star_graph(3))  # warm-up
    tracemalloc.start()
    try:
        r = dsatur(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.k == 2
    assert peak < 300_000, f"dsatur peak {peak} bytes on star(800)"


# -- rlf ----------------------------------------------------------------------

def test_rlf_star_two_classes():
    # the hub is the unique highest-degree vertex; the leaves form class two
    assert rlf(star_graph(5)).k == 2


def test_rlf_clique():
    assert rlf(complete_graph(4)).k == 4


def test_rlf_crown():
    g = crown_graph(4)
    for seed in range(5):
        r = rlf(g, seed=seed)
        assert r.k == 2
        assert validate(g, r.coloring).ok


def test_rlf_deterministic_given_seed():
    g = random_gnp(30, 0.5, seed=3)
    a = rlf(g, seed=42)
    b = rlf(g, seed=42)
    assert np.array_equal(a.coloring.assignment, b.coloring.assignment)


def test_rlf_lowest_id_mode_ignores_seed():
    g = random_gnp(30, 0.5, seed=3)
    a = rlf(g, seed=1, tie_break="lowest-id")
    b = rlf(g, seed=99, tie_break="lowest-id")
    assert np.array_equal(a.coloring.assignment, b.coloring.assignment)
    with pytest.raises(ValueError):
        rlf(g, tie_break="highest")


def test_rng_stream_is_stable():
    """The xorshift32 stream RLF's random tie-breaks draw from, pinned: a
    changed stream changes every seeded RLF coloring."""
    stream = list(islice(xorshift32(123), 5))
    assert stream == [3761224023, 4155443317, 3264595845, 919473239, 534145365]
    assert list(islice(xorshift32(123), 5)) == stream


def test_seed_zero_is_usable():
    stream = [1359758873, 3761132862, 2075758394, 25405621, 3862129951]
    assert list(islice(xorshift32(0), 5)) == stream
    # 2342946167 mixes to state 0, which would stay 0 forever; it falls back
    # to the same nonzero state as seed 0
    assert list(islice(xorshift32(2342946167), 5)) == stream


def test_rlf_classes_are_maximal_independent_sets():
    """Every vertex of class j was parked while each earlier class was built,
    i.e. it has a neighbor in every class before its own; and classes are
    independent."""
    for seed in range(10):
        g = random_gnp(25, 0.4, seed=seed)
        colors = rlf(g, seed=seed).coloring.assignment
        for v in range(g.n):
            neighbor_colors = {int(colors[w]) for w in g.neighbors(v)}
            assert colors[v] not in neighbor_colors
            assert set(range(1, colors[v])) <= neighbor_colors


# -- shared sanity --------------------------------------------------------------

def test_all_baselines_color_properly():
    for seed in range(20):
        g = random_gnp(2 + seed, 0.5, seed=seed)
        for result in (iterated_greedy(g), dsatur(g), rlf(g, seed=seed)):
            assert validate(g, result.coloring).ok


def test_all_baselines_dominate_exact():
    for seed in range(20):
        g = random_gnp(4 + seed % 6, [0.3, 0.6][seed % 2], seed=seed)
        chi = exact_chromatic(g)[0]
        assert iterated_greedy(g).k >= chi
        assert dsatur(g).k >= chi
        assert rlf(g, seed=seed).k >= chi


# colorings of every mode on six small graphs, pinned by digest: any change
# to an order, a tie-break or the RLF stream shows here
_PINNED_GRAPHS = (
    lambda: random_gnp(60, 0.3, seed=1),
    lambda: random_gnp(40, 0.7, seed=2),
    lambda: random_gnp(50, 0.08, seed=3),
    lambda: crown_graph(9),
    lambda: star_graph(12),
    lambda: barabasi_albert(80, 3, seed=5),
)


@pytest.mark.parametrize("run, digest", [
    (lambda g: iterated_greedy(g, "degree"),
     "47e7d0b30ce0987f54bc0f3ab3a5d40158663bdecb3f796dc79d4cb2c3db7a24"),
    (lambda g: iterated_greedy(g, "natural"),
     "39cc4df3e55179e7638cf9abdff4f499e8125c66eb7096c7819bf49bec7e6f69"),
    (lambda g: iterated_greedy(g, list(range(g.n - 1, -1, -1))),
     "c015b3031560c76e1313baf9a7210f5348ad63d1e833b0c26a6c2c1bb65066cc"),
    (lambda g: dsatur(g, "distinct"),
     "cdfcc1a32ae8caa7eeaa2bfbf3165cf2e936136bd85c8546880292aa76ffbd4e"),
    (lambda g: dsatur(g, "count"),
     "95361bd414cbbe56b8fe75a99e8eaa31d7ac960d4c14922cee3ed86f1085ee86"),
    (lambda g: rlf(g, seed=0),
     "8e42137957d2d6343f7e2b9d8d6c703fab6943d6fcc1abf9030050158dd079ed"),
    (lambda g: rlf(g, seed=7),
     "4643b82c0c8017fd3eac1a33b4acfaba09475a35987f701c2057b0ad88238513"),
    (lambda g: rlf(g, tie_break="lowest-id"),
     "f1a622b92a1d75dc90b9dbcc9d97926f3afc9164b73af1c45db6baa766b90f9f"),
], ids=["ig-degree", "ig-natural", "ig-reversed", "dsatur-distinct",
        "dsatur-count", "rlf-random-0", "rlf-random-7", "rlf-lowest-id"])
def test_baseline_colorings_are_pinned(run, digest):
    h = hashlib.sha256()
    for build in _PINNED_GRAPHS:
        a = run(build()).coloring.assignment
        assert a.dtype == np.dtype("<i4")
        h.update(a.tobytes())
    assert h.hexdigest() == digest
