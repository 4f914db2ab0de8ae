from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from util import complete_graph, path_graph, star_graph
from wfcolor.baselines import dsatur
from wfcolor.coloring import validate
from wfcolor.exact import exact_chromatic
from wfcolor.graph import Graph, crown_graph, random_gnp
from wfcolor.oracle import naive_propagate
from wfcolor.wfc import RESTART, TIE_BREAKS, DomainState, SolveConfig, solve


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
    a = solve(g, SolveConfig(seed=5))
    b = solve(g, SolveConfig(seed=5))
    assert np.array_equal(a.coloring.assignment, b.coloring.assignment)
    assert (a.k, a.restarts, a.forced_colorings) == (b.k, b.restarts, b.forced_colorings)


def test_random_tie_break_is_seeded():
    g = random_gnp(40, 0.4, seed=11)
    a = solve(g, SolveConfig(tie_break="random", seed=5))
    b = solve(g, SolveConfig(tie_break="random", seed=5))
    assert np.array_equal(a.coloring.assignment, b.coloring.assignment)
    assert validate(g, a.coloring).ok


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(tie_break="alphabetical")


def test_concurrent_solves_share_one_graph():
    # each run owns its own state; a shared immutable graph is safe
    g = random_gnp(60, 0.4, seed=21)
    expected = solve(g, SolveConfig(seed=1)).coloring.assignment
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(
            lambda _: solve(g, SolveConfig(seed=1)), range(16)))
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
    """solve() one DomainState call at a time: seed the lowest-id
    maximum-degree vertex with color 1 and propagate, then
    observe/collapse/propagate; a dead end restarts with one more color."""
    m0 = max(g.max_degree, 1)
    for m in (m0, m0 + 1):
        state = DomainState(g, m, seed=seed)
        v = max(range(g.n), key=lambda u: (g.degrees[u], -u))
        state.set_color(v, 1)
        ok = state.propagate(v)
        while ok and state.colored_count < g.n:
            v = state.observe(tie_break)
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
    r = solve(g, SolveConfig(tie_break=tie_break, seed=seed))
    assert (r.coloring.assignment.tolist(), r.restarts, r.final_m,
            r.forced_colorings) == _solve_by_hand(g, tie_break, seed)


# -- observe ----------------------------------------------------------------

def test_observe_picks_minimum_entropy():
    g = Graph.from_edges(3, [])
    st_ = DomainState.from_domains(g, 4, {0: {1, 2, 3}, 1: {1, 2}, 2: {1, 2, 3, 4}})
    assert st_.observe() == 1


def test_observe_breaks_ties_by_degree():
    # vertices 0 and 1 tie at entropy 2; 0 has the higher degree
    g = Graph.from_edges(7, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
                             (1, 2), (1, 3), (1, 4)])
    domains = {0: {1, 2}, 1: {2, 3}}
    colors = {v: 1 for v in range(2, 7)}
    st_ = DomainState.from_domains(g, 4, domains, colors)
    assert st_.observe() == 0


def test_observe_ties_fall_back_to_lowest_id():
    g = Graph.from_edges(4, [])
    st_ = DomainState.from_domains(g, 3, {v: {1, 2} for v in range(4)})
    assert st_.observe() == 0


def test_observe_empty_domain_signals_restart():
    g = path_graph(3)
    st_ = DomainState.from_domains(g, 2, {0: set(), 1: {1, 2}, 2: {1}})
    assert st_.observe() == RESTART


def test_observe_requires_uncolored():
    g = path_graph(2)
    st_ = DomainState.from_domains(g, 2, {}, {0: 1, 1: 2})
    with pytest.raises(ValueError):
        st_.observe()


def test_observe_random_mode_stays_on_minimum():
    g = Graph.from_edges(5, [])
    st_ = DomainState.from_domains(
        g, 3, {0: {1, 2, 3}, 1: {1, 2}, 2: {2, 3}, 3: {1, 2, 3}, 4: {1, 2, 3}},
        seed=9)
    assert st_.observe(tie_break="random") in (1, 2)


def test_observe_agrees_with_plain_scan():
    """observe() returns exactly what a plain scan over the uncolored
    vertices would, on states with mixed domain sizes, some colored vertices
    and equal entropies at different degrees; in random mode every pick
    still has the minimum entropy."""
    rng = np.random.default_rng(0)
    for trial in range(60):
        n = int(rng.integers(2, 12))
        g = random_gnp(n, 0.5, seed=trial)
        m = int(rng.integers(2, 6))
        colored = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        colors = {int(v): int(rng.integers(1, m + 1)) for v in colored}
        domains = {v: {int(c) for c in rng.choice(
                       np.arange(1, m + 1), size=int(rng.integers(0, m + 1)),
                       replace=False)}
                   for v in range(n) if v not in colors}
        st_ = DomainState.from_domains(g, m, domains, colors, seed=trial)
        uncolored = st_.uncolored()
        low = min(len(domains[v]) for v in uncolored)
        expected = min(uncolored, key=lambda v: (len(domains[v]),
                                                 -st_.degrees[v], v))
        assert st_.observe() == (RESTART if low == 0 else expected)
        for seed in range(5):
            st_ = DomainState.from_domains(g, m, domains, colors, seed=seed)
            for _ in range(3):
                got = st_.observe(tie_break="random")
                if low == 0:
                    assert got == RESTART
                else:
                    assert got in uncolored and len(domains[got]) == low


# -- collapse ---------------------------------------------------------------

def test_collapse_takes_minimum_color():
    g = Graph.from_edges(1, [])
    st_ = DomainState.from_domains(g, 5, {0: {2, 4, 5}})
    assert st_.collapse(0) == 2
    assert st_.color_of(0) == 2


def test_collapse_singleton():
    g = Graph.from_edges(1, [])
    st_ = DomainState.from_domains(g, 3, {0: {1}})
    assert st_.collapse(0) == 1


def test_collapse_min_is_set_min():
    g = Graph.from_edges(1, [])
    st_ = DomainState.from_domains(g, 3, {0: {3, 1}})
    assert st_.collapse(0) == 1


def test_collapse_empty_domain_is_an_error():
    g = Graph.from_edges(2, [(0, 1)])
    st_ = DomainState.from_domains(g, 2, {0: set(), 1: {1}})
    with pytest.raises(ValueError):
        st_.collapse(0)


# -- propagate --------------------------------------------------------------

def test_restriction_stops_at_wide_domains():
    # 0 -- 1 -- 2; coloring 0 cannot reach 2 while 1 keeps two options
    g = path_graph(3)
    st_ = DomainState.from_domains(g, 3, {1: {2, 3}, 2: {1, 2, 3}}, {0: 1})
    assert st_.propagate(0)
    assert st_.domain(1) == {2, 3}
    assert st_.domain(2) == {1, 2, 3}
    assert st_.forced_count == 0


def test_restriction_cascades_through_unit_domains():
    # same chain, but 1 drops to a single color: it gets colored and its
    # restriction reaches 2
    g = path_graph(3)
    st_ = DomainState.from_domains(g, 3, {1: {1, 2}, 2: {1, 2, 3}}, {0: 1})
    assert st_.propagate(0)
    assert st_.color_of(1) == 2
    assert st_.domain(2) == {1, 3}
    assert st_.forced_count == 1


def test_path_5_cascade_colors_everything():
    g = path_graph(5)
    st_ = DomainState(g, 2)
    st_.set_color(0, 1)
    snapshot = st_.colors.copy()
    assert st_.propagate(0)
    assert st_.colors.tolist() == [1, 2, 1, 2, 1]
    assert st_.forced_count == 4
    # the from-scratch reference reaches the identical fixed point
    ref = naive_propagate(g, snapshot, 2, 0)
    assert ref is not None
    assert np.array_equal(ref[0], st_.colors)


def test_triangle_with_two_colors_restarts():
    g = complete_graph(3)
    st_ = DomainState(g, 2)
    st_.set_color(0, 1)
    assert not st_.propagate(0)


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
    rng = np.random.default_rng(3)
    for trial in range(40):
        n = int(rng.integers(3, 14))
        g = random_gnp(n, 0.5, seed=100 + trial)
        m = max(g.max_degree, 1) + int(rng.integers(0, 3))
        st_ = DomainState(g, m)
        v = int(rng.integers(0, n))
        st_.set_color(v, 1)
        if not st_.propagate(v):
            continue
        for u in range(n):
            if st_.color_of(u) is None:
                continue
            for w in g.neighbors(u):
                if st_.color_of(int(w)) is None:
                    assert st_.color_of(u) not in st_.domain(int(w))


def test_propagate_only_shrinks_domains():
    g = crown_graph(5)
    st_ = DomainState(g, 4)
    st_.set_color(0, 1)
    before = st_.domains()
    assert st_.propagate(0)
    for v in range(g.n):
        if st_.color_of(v) is None:
            assert st_.domain(v) <= before[v]


# -- forced colorings vs. observation ----------------------------------------

def test_star_center_seed_forces_nothing_with_wide_budget():
    g = star_graph(5)
    st_ = DomainState(g, 5)
    st_.set_color(0, 1)
    assert st_.propagate(0)
    assert st_.forced_count == 0
    assert all(st_.domain(v) == {2, 3, 4, 5} for v in range(1, 6))
