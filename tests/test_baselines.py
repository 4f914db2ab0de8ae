import numpy as np
import pytest

from util import complete_graph, cycle_graph
from wfcolor.baselines import dsatur, iterated_greedy, resolve_order, rlf
from wfcolor.coloring import validate
from wfcolor.exact import exact_chromatic
from wfcolor.graph import crown_graph, random_gnp, star_graph


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


def test_degree_order_highest_first():
    g = star_graph(3)
    assert resolve_order(g, "degree").tolist() == [0, 1, 2, 3]


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
