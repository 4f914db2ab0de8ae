import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from util import complete_graph, path_graph
from wfcolor.baselines import dsatur
from wfcolor.coloring import validate
from wfcolor.exact import exact_chromatic
from wfcolor.graph import (Graph, barabasi_albert, crown_graph, random_gnp,
                           star_graph)
from wfcolor.oracle import naive_propagate
from wfcolor.wfc import RESTART, TIE_BREAKS, DomainState, solve


# -- solve ------------------------------------------------------------------

def test_triangle_restarts_once():
    # budget 2 wedges both neighbors onto the same color; budget 3 succeeds
    r = solve(complete_graph(3))
    assert r.k == 3
    assert r.restarts == 1
    assert r.final_m == 3


def test_crown_4_two_colors():
    g = crown_graph(4)
    r = solve(g)
    assert r.k == 2
    assert validate(g, r.coloring).ok


def test_path_3_colored_by_seed_cascade():
    # seeding the center leaves both endpoints with a unit domain
    r = solve(path_graph(3))
    assert r.k == 2
    assert r.restarts == 0
    assert r.forced_colorings == 2


def test_single_vertex():
    r = solve(Graph.from_edges(1, []))
    assert r.k == 1
    assert r.final_m == 1


def test_edgeless_graph_uses_one_color():
    r = solve(Graph.from_edges(5, []))
    assert r.k == 1


def test_disconnected_graph_is_fine():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    r = solve(g)
    assert validate(g, r.coloring).ok
    assert r.k == 3


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        solve(Graph.from_edges(0, []))


def test_solve_is_deterministic():
    g = random_gnp(40, 0.4, seed=11)
    a = solve(g, seed=5)
    b = solve(g, seed=5)
    assert np.array_equal(a.coloring.assignment, b.coloring.assignment)
    assert (a.k, a.restarts, a.forced_colorings) == (b.k, b.restarts, b.forced_colorings)


def test_random_tie_break_is_seeded():
    g = random_gnp(40, 0.4, seed=11)
    a = solve(g, tie_break="random", seed=5)
    b = solve(g, tie_break="random", seed=5)
    assert np.array_equal(a.coloring.assignment, b.coloring.assignment)
    assert validate(g, a.coloring).ok


def test_config_validation():
    with pytest.raises(ValueError):
        solve(random_gnp(5, 0.5, seed=0), tie_break="alphabetical")


def test_concurrent_solves_share_one_graph():
    # each run owns its own state; a shared immutable graph is safe
    g = random_gnp(60, 0.4, seed=21)
    expected = solve(g, seed=1).coloring.assignment
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda _: solve(g, seed=1), range(16)))
    for r in results:
        assert np.array_equal(r.coloring.assignment, expected)
        assert validate(g, r.coloring).ok


@pytest.mark.parametrize("n", range(2, 11))
def test_crown_family_two_colors(n):
    g = crown_graph(n)
    r = solve(g)
    assert r.k == 2
    assert validate(g, r.coloring).ok


def test_budget_accounting():
    for seed in range(15):
        g = random_gnp(25, [0.2, 0.5, 0.8][seed % 3], seed=seed)
        r = solve(g)
        assert r.k <= r.final_m
        assert r.final_m == max(g.max_degree, 1) + r.restarts
        assert r.restarts <= 1


def test_dominates_exact_chromatic_on_small_graphs():
    for seed in range(25):
        g = random_gnp(4 + seed % 6, 0.5, seed=seed)
        assert solve(g).k >= exact_chromatic(g)[0]


@given(n=st.integers(2, 40), p=st.sampled_from([0.1, 0.4, 0.8]),
       seed=st.integers(0, 500))
def test_solve_output_is_always_proper(n, p, seed):
    g = random_gnp(n, p, seed)
    r = solve(g)
    assert validate(g, r.coloring).ok
    assert r.coloring.k == r.k


@st.composite
def _graphs(draw):
    family = draw(st.sampled_from(["gnp", "crown", "complete", "star",
                                   "edgeless"]))
    if family == "gnp":
        return random_gnp(draw(st.integers(1, 60)),
                          draw(st.sampled_from([0.05, 0.3, 0.5, 0.8, 0.95])),
                          draw(st.integers(0, 10_000)))
    if family == "crown":
        return crown_graph(draw(st.integers(2, 30)))
    if family == "complete":
        return complete_graph(draw(st.integers(1, 20)))
    if family == "star":
        return star_graph(draw(st.integers(1, 40)))
    return Graph.from_edges(draw(st.integers(1, 40)), [])


@given(g=_graphs())
def test_solve_is_dsatur(g):
    # entropy = budget - saturation and both break ties by degree, then id;
    # max_degree + 1 colors cannot fail, so one restart is the most there is
    r = solve(g)
    assert r.coloring.assignment.tobytes() == \
        dsatur(g).coloring.assignment.tobytes()
    assert r.restarts <= 1
    assert r.final_m == max(g.max_degree, 1) + r.restarts


def _solve_by_hand(g, tie_break, seed):
    """The paper's loop, one DomainState call at a time: at budget
    max(max_degree, 1), then one more color after a dead end, seed the
    lowest-id maximum-degree vertex with color 1 and propagate, then
    observe/collapse/propagate."""
    m0 = max(g.max_degree, 1)
    for m in (m0, m0 + 1):
        state = DomainState(g, m, seed=seed, tie_break=tie_break)
        v = max(range(g.n), key=lambda u: (g.degrees[u], -u))
        state.set_color(v, 1)
        ok = state.propagate(v)
        while ok and state.colored_count < g.n:
            v = state.observe()
            ok = v != RESTART
            if ok:
                state.collapse(v)
                ok = state.propagate(v)
        if ok:
            return state.colors.tolist(), m - m0, m, state.forced_count
    raise AssertionError("max_degree + 1 colors cannot fail")


@given(g=_graphs(), tie_break=st.sampled_from(TIE_BREAKS),
       seed=st.integers(0, 1000))
def test_solve_equals_domain_state_by_hand(g, tie_break, seed):
    r = solve(g, tie_break=tie_break, seed=seed)
    assert (r.coloring.assignment.tolist(), r.restarts, r.final_m,
            r.forced_colorings) == _solve_by_hand(g, tie_break, seed)


# -- work counters -----------------------------------------------------------

@pytest.mark.parametrize("leaves", [1, 2, 7, 300])
def test_star_strikes_once_per_leaf(leaves):
    # the hub's color is struck from every leaf; a leaf strikes nothing,
    # because its only neighbor is already colored
    r = solve(star_graph(leaves))
    assert r.stats["strikes"] == leaves
    assert r.stats["selections"] == leaves


def test_strikes_are_bounded_by_degree_and_colors():
    # a vertex is struck at most once per neighbor and once per color
    for seed in range(40):
        g = (random_gnp(30 + seed, [0.05, 0.2, 0.5, 0.9][seed % 4], seed)
             if seed % 5 else barabasi_albert(60 + seed, 1 + seed % 4, seed))
        r = solve(g)
        bound = int(np.minimum(g.degrees, r.k).sum())
        assert r.stats["strikes"] <= bound
        assert r.stats["selections"] == g.n - 1
        # every popped key was pushed: n initial keys plus one per strike
        assert r.stats["stale_pops"] <= g.n + r.stats["strikes"]


def test_large_star_solves_in_little_memory():
    # an n x max_degree domain matrix would need (n + 1) * n bytes here,
    # 2.5 GB; the engine's state grows with n and the colors in use
    g = star_graph(50_000)
    tracemalloc.start()
    try:
        r = solve(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.k == 2 and validate(g, r.coloring).ok
    assert peak < 64 * 2**20


def test_heap_stays_compact():
    # lazy deletion leaves old keys behind; the rebuild keeps the heap at
    # most twice the uncolored count, and every uncolored vertex keeps its
    # live key
    for seed in range(3):
        g = random_gnp(150, [0.1, 0.5, 0.9][seed], seed)
        state = DomainState(g)
        v = int(np.argmax(g.degrees))
        state.set_color(v, 1)
        while True:
            assert state.propagate(v)
            uncolored = g.n - state.colored_count
            assert len(state._heap) <= 2 * uncolored
            colors = state.colors
            live = {state._key[u] for u in range(g.n) if not colors[u]}
            assert live <= set(state._heap)
            if not uncolored:
                break
            v = state.observe()
            state.collapse(v)


# -- observe ----------------------------------------------------------------
# entropy = m - saturation: the minimum-entropy vertex is the one with the
# most distinct colors around it

def _state(g, m=None, colored=(), seed=0, tie_break="degree"):
    """A state with the (vertex, color) pairs set, then propagated; also
    returns whether every propagate succeeded."""
    st_ = DomainState(g, m, seed=seed, tie_break=tie_break)
    for v, c in colored:
        st_.set_color(v, c)
    ok = all([st_.propagate(v) for v, _ in colored])
    return st_, ok


def _scan_saturation(g, colors, v):
    return len({colors[w] for w in g.neighbors(v).tolist() if colors[w]})


def test_observe_picks_minimum_entropy():
    # 1 sees colors {1, 2}, 0 sees {1}, 2 sees none
    g = Graph.from_edges(5, [(0, 3), (1, 3), (1, 4)])
    st_, ok = _state(g, 4, [(3, 1), (4, 2)])
    assert ok
    assert [st_.saturation(v) for v in range(3)] == [1, 2, 0]
    assert st_.observe() == 1
    assert st_.observe() == 1  # observing picks nothing


def test_observe_breaks_ties_by_degree():
    # vertices 0 and 1 tie at saturation 1; 0 has the higher degree
    g = Graph.from_edges(7, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
                             (1, 2), (1, 3), (1, 4)])
    st_, ok = _state(g, 4, [(v, 1) for v in range(2, 7)])
    assert ok
    assert st_.observe() == 0


def test_observe_ties_fall_back_to_lowest_id():
    g = Graph.from_edges(4, [])
    st_ = DomainState(g, 3)
    assert st_.observe() == 0
    st_.collapse(0)
    assert st_.observe() == 1


def test_observe_empty_domain_signals_restart():
    # 0 -- 1 -- 2 with two colors: 1 sees both, so its domain is empty
    g = path_graph(3)
    st_, ok = _state(g, 2, [(0, 1), (2, 2)])
    assert not ok
    assert st_.observe() == RESTART
    # with one color, the first strike already empties a domain
    st_, ok = _state(g, 1, [(0, 1)])
    assert not ok
    assert st_.observe() == RESTART


def test_observe_requires_uncolored():
    g = path_graph(2)
    st_, _ = _state(g, 2, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        st_.observe()


def test_observe_random_mode_stays_on_minimum():
    # 1 and 2 tie at the highest saturation; the seed picks between them
    g = Graph.from_edges(6, [(1, 5), (2, 5)])
    picks = set()
    for seed in range(30):
        st_, _ = _state(g, 3, [(5, 1)], seed=seed, tie_break="random")
        picks.add(st_.observe())
    assert picks == {1, 2}


def test_observe_agrees_with_plain_scan():
    """observe() returns exactly what a plain scan over the uncolored
    vertices would: the highest saturation, then the highest degree, then
    the lowest id, or RESTART once a saturation has reached the budget.  In
    random mode every pick still has the highest saturation."""
    rng = np.random.default_rng(0)
    for trial in range(60):
        n = int(rng.integers(5, 12))  # colors up to n need no budget
        g = random_gnp(n, 0.5, seed=trial)
        m = int(rng.integers(2, 6))
        colored = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        pairs = [(int(v), int(rng.integers(1, m + 1))) for v in colored]
        colors = [0] * n
        for v, c in pairs:
            colors[v] = c
        uncolored = [v for v in range(n) if not colors[v]]
        sat = {v: _scan_saturation(g, colors, v) for v in uncolored}
        expected = min(uncolored, key=lambda v: (-sat[v], -g.degrees[v], v))
        st_, ok = _state(g, None, pairs)
        assert ok
        assert {v: st_.saturation(v) for v in uncolored} == sat
        assert st_.observe() == expected
        st_, ok = _state(g, m, pairs)
        assert ok == (sat[expected] < m)
        assert st_.observe() == (expected if ok else RESTART)
        for seed in range(5):
            st_, _ = _state(g, None, pairs, seed=seed, tie_break="random")
            assert sat[st_.observe()] == sat[expected]


# -- collapse ---------------------------------------------------------------

def test_collapse_takes_minimum_color():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    st_, _ = _state(g, 5, [(1, 1), (2, 3), (3, 4)])
    assert st_.collapse(0) == 2
    assert st_.colors[0] == 2


def test_collapse_singleton():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    st_, _ = _state(g, 3, [(1, 2), (2, 3)])
    assert st_.domain(0) == {1}
    assert st_.collapse(0) == 1


def test_collapse_min_is_set_min():
    g = Graph.from_edges(2, [(0, 1)])
    st_, _ = _state(g, 3, [(1, 2)])
    assert st_.domain(0) == {1, 3}
    assert st_.collapse(0) == 1


def test_collapse_empty_domain_is_an_error():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    st_, ok = _state(g, 2, [(1, 1), (2, 2)])
    assert not ok
    with pytest.raises(ValueError):
        st_.collapse(0)
    with pytest.raises(ValueError):
        st_.collapse(1)  # already colored


# -- propagate --------------------------------------------------------------

def test_restriction_stops_at_wide_domains():
    # 0 -- 1 -- 2; coloring 0 cannot reach 2 while 1 keeps two options
    g = path_graph(3)
    st_, ok = _state(g, 3, [(0, 1)])
    assert ok
    assert st_.domain(1) == {2, 3}
    assert st_.domain(2) == {1, 2, 3}
    assert st_.forced_count == 0


def test_restriction_cascades_through_unit_domains():
    # 1 is left with the single color 2: it is picked next, as the cascade
    # would color it, and its strike reaches 2
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    st_, ok = _state(g, 3, [(3, 3), (0, 1)])
    assert ok
    assert st_.domain(1) == {2}
    assert st_.observe() == 1
    assert st_.collapse(1) == 2
    assert st_.propagate(1)
    assert st_.domain(2) == {1, 3}
    assert st_.forced_count == 1


def test_path_5_cascade_colors_everything():
    # every vertex after the first is picked with one color left, as the
    # recomputing reference cascade colors them
    g = path_graph(5)
    st_, ok = _state(g, 2, [(0, 1)])
    snapshot = st_.colors
    while ok and st_.colored_count < g.n:
        v = st_.observe()
        st_.collapse(v)
        ok = st_.propagate(v)
    assert ok
    assert st_.colors.tolist() == [1, 2, 1, 2, 1]
    assert st_.forced_count == 4
    ref = naive_propagate(g, snapshot, 2, 0)
    assert ref is not None
    assert np.array_equal(ref[0], st_.colors)


def test_triangle_with_two_colors_restarts():
    g = complete_graph(3)
    st_, ok = _state(g, 2, [(0, 1)])
    assert ok
    v = st_.observe()
    assert st_.collapse(v) == 2
    assert not st_.propagate(v)  # the third vertex sees both colors


def test_edge_with_one_color_restarts_on_empty_domain():
    g = path_graph(2)
    st_ = DomainState(g, 1)
    st_.set_color(0, 1)
    assert not st_.propagate(0)


def test_propagate_requires_colored_start():
    g = path_graph(2)
    st_ = DomainState(g, 2)
    with pytest.raises(ValueError):
        st_.propagate(0)


def test_propagate_keeps_colored_neighbor_exclusion():
    # after every successful step, each uncolored domain is exactly the
    # budget minus the colors of its colored neighbors
    rng = np.random.default_rng(3)
    for trial in range(40):
        n = int(rng.integers(3, 14))
        g = random_gnp(n, 0.5, seed=100 + trial)
        m = max(g.max_degree, 1) + int(rng.integers(0, 3))
        v = int(rng.integers(0, n))
        st_, ok = _state(g, m, [(v, 1)])
        while ok:
            colors = st_.colors.tolist()
            for u in range(n):
                if not colors[u]:
                    seen = {colors[w] for w in g.neighbors(u).tolist()}
                    assert st_.domain(u) == set(range(1, m + 1)) - seen
            if st_.colored_count == n:
                break
            v = st_.observe()
            ok = v != RESTART
            if ok:
                st_.collapse(v)
                ok = st_.propagate(v)


def test_propagate_only_shrinks_domains():
    g = crown_graph(5)
    st_ = DomainState(g, 4)
    st_.set_color(0, 1)
    before = [st_.domain(v) for v in range(1, g.n)]
    assert st_.propagate(0)
    for v in range(1, g.n):
        assert st_.domain(v) <= before[v - 1]


# -- forced colorings vs. observation ----------------------------------------

def test_star_center_seed_forces_nothing_with_wide_budget():
    g = star_graph(5)
    st_ = DomainState(g, 5)
    st_.set_color(0, 1)
    assert st_.propagate(0)
    assert st_.forced_count == 0
    assert all(st_.domain(v) == {2, 3, 4, 5} for v in range(1, 6))
