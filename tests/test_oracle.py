import numpy as np
import pytest

from util import complete_graph, cycle_graph, path_graph
from wfcolor.exact import OracleLimitError, exact_chromatic
from wfcolor.graph import Graph, crown_graph, random_gnp
from wfcolor.oracle import best_greedy_ordering_k, naive_propagate, paper_wfc
from wfcolor.wfc import RESTART, DomainState


def test_best_ordering_triangle():
    assert best_greedy_ordering_k(complete_graph(3)) == 3


def test_best_ordering_crown_matches_exact():
    g = crown_graph(3)
    assert best_greedy_ordering_k(g) == 2 == exact_chromatic(g)[0]


def test_best_ordering_odd_cycle():
    g = cycle_graph(5)
    assert best_greedy_ordering_k(g) == 3 == exact_chromatic(g)[0]


def test_best_ordering_budget():
    g = random_gnp(9, 0.5, seed=0)
    with pytest.raises(OracleLimitError):
        best_greedy_ordering_k(g)
    # a raised cap admits the same graph
    assert best_greedy_ordering_k(g, limit=9) >= 1


def test_best_ordering_edgeless():
    assert best_greedy_ordering_k(Graph.from_edges(4, [])) == 1


def test_naive_propagate_path_center():
    g = path_graph(3)
    colors = np.array([0, 1, 0], dtype=np.int32)
    out = naive_propagate(g, colors, 2, 1)
    assert out is not None
    assert out[0].tolist() == [2, 1, 2]
    assert out[1] == [None, None, None]


def test_naive_propagate_triangle_restarts():
    g = complete_graph(3)
    colors = np.array([1, 0, 0], dtype=np.int32)
    assert naive_propagate(g, colors, 2, 0) is None


def test_naive_propagate_isolated_seed_changes_nothing():
    g = Graph.from_edges(3, [(1, 2)])
    colors = np.array([1, 0, 0], dtype=np.int32)
    out = naive_propagate(g, colors, 2, 0)
    assert out is not None
    assert out[0].tolist() == [1, 0, 0]
    assert out[1][1] == {1, 2} and out[1][2] == {1, 2}


def test_naive_propagate_requires_colored_vertex():
    g = path_graph(2)
    with pytest.raises(ValueError):
        naive_propagate(g, np.zeros(2, dtype=np.int32), 2, 0)


def test_naive_propagate_matches_forced_picks():
    """From one colored vertex, the engine picking every vertex left with a
    single color (saturation m - 1) reaches naive_propagate's fixed point:
    same verdict, same colors, same domains."""
    rng = np.random.default_rng(17)
    for trial in range(150):
        n = int(rng.integers(2, 12))
        g = random_gnp(n, [0.2, 0.5, 0.8][trial % 3], seed=trial)
        m = int(rng.integers(1, max(g.max_degree, 1) + 3))
        v = int(rng.integers(0, n))
        state = DomainState(g, m)
        state.set_color(v, 1)
        snapshot = state.colors
        ok = state.propagate(v)
        while ok and m >= 2 and state.colored_count < n:
            u = state.observe()
            if u == RESTART:
                ok = False
            elif state.saturation(u) < m - 1:
                break
            else:
                state.collapse(u)
                ok = state.propagate(u)
        ref = naive_propagate(g, snapshot, m, v)
        assert ok == (ref is not None)
        if ok:
            assert np.array_equal(ref[0], state.colors)
            colors = state.colors.tolist()
            assert ref[1] == [None if colors[u] else state.domain(u)
                              for u in range(n)]


def test_paper_wfc_small_cases():
    # path 0-1-2: seeding the center forces both ends
    colors, restarts, final_m, forced = paper_wfc(path_graph(3))
    assert (colors.tolist(), restarts, final_m, forced) == ([2, 1, 2], 0, 2, 2)
    # a triangle empties a domain at budget 2 and succeeds at 3
    colors, restarts, final_m, forced = paper_wfc(complete_graph(3))
    assert (sorted(colors.tolist()), restarts, final_m) == ([1, 2, 3], 1, 3)
    # a single vertex: budget 1, nothing forced
    colors, restarts, final_m, forced = paper_wfc(Graph.from_edges(1, []))
    assert (colors.tolist(), restarts, final_m, forced) == ([1], 0, 1, 0)
    with pytest.raises(ValueError):
        paper_wfc(Graph.from_edges(0, []))
