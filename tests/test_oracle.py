import numpy as np
import pytest

from util import complete_graph, naive_propagate, paper_wfc, path_graph
from wfcolor.graph import Graph, random_gnp


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
    with pytest.raises(ValueError, match="need at least one color"):
        naive_propagate(g, np.array([1, 0], dtype=np.int32), 0, 0)


def _saturation(g, colors, v):
    """Distinct colors among v's colored neighbors, counted afresh."""
    return len({colors[w] for w in g.neighbors(v).tolist() if colors[w]})


def test_naive_propagate_matches_forced_picks():
    """From one colored vertex, picking every vertex left with a single
    color (saturation m - 1), as the engine does, with each saturation
    recounted from the colors at every step, reaches naive_propagate's
    fixed point: the same verdict (a saturation of m empties a domain),
    the same colors, and domains of m minus the recounted saturation."""
    rng = np.random.default_rng(17)
    for trial in range(150):
        n = int(rng.integers(2, 12))
        g = random_gnp(n, [0.2, 0.5, 0.8][trial % 3], seed=trial)
        m = int(rng.integers(1, max(g.max_degree, 1) + 3))
        v = int(rng.integers(0, n))
        colors = [0] * n
        colors[v] = 1
        snapshot = np.array(colors, dtype=np.int32)
        while True:
            sat = {u: _saturation(g, colors, u) for u in range(n) if not colors[u]}
            ok = all(s < m for s in sat.values())
            # with m = 1 no domain is forced: it starts at one color
            forced = [u for u, s in sat.items() if m >= 2 and s == m - 1]
            if not ok or not forced:
                break
            # the engine's tie-break: highest degree, then lowest id
            u = min(forced, key=lambda w: (-g.degrees[w], w))
            around = {colors[w] for w in g.neighbors(u).tolist()}
            colors[u] = min(set(range(1, m + 1)) - around)
        ref = naive_propagate(g, snapshot, m, v)
        assert ok == (ref is not None)
        if ok:
            assert ref[0].tolist() == colors
            for u in range(n):
                if colors[u]:
                    assert ref[1][u] is None
                else:
                    assert len(ref[1][u]) == m - sat[u]


def _listed(out):
    colors, *counters = out
    return (colors.tolist(), *counters)


def test_paper_wfc_small_cases():
    # path 0-1-2: seeding the center forces both ends, each at saturation
    # m - 1 = 1
    assert _listed(paper_wfc(path_graph(3))) == ([2, 1, 2], 0, 2, 2, [1, 0, 1])
    # a triangle empties a domain at budget 2 and succeeds at 3: vertex 1
    # is picked with domain {2, 3}, and vertex 2 is then forced
    assert _listed(paper_wfc(complete_graph(3))) == \
        ([1, 2, 3], 1, 3, 1, [0, 1, 2])
    # a single vertex: budget 1, nothing forced
    assert _listed(paper_wfc(Graph.from_edges(1, []))) == ([1], 0, 1, 0, [0])
    # the empty graph: nothing to color, and the least budget
    assert _listed(paper_wfc(Graph.from_edges(0, []))) == ([], 0, 1, 0, [])
    with pytest.raises(ValueError, match="tie_break"):
        paper_wfc(path_graph(3), tie_break="lowest-id")
