import copy
import pickle
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from util import complete_graph, cycle_graph, path_graph
from wfcolor.baselines import dsatur
from wfcolor.coloring import validate
from wfcolor.exact import exact_chromatic
from wfcolor.graph import (Graph, barabasi_albert, crown_graph, random_gnp,
                           star_graph)
from wfcolor.oracle import naive_propagate
from wfcolor.wfc import (RESTART, TIE_BREAKS, DomainState, _dense_pass,
                         _is_dense, solve)


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
    g = random_gnp(5, 0.5, seed=0)
    with pytest.raises(ValueError):
        solve(g, tie_break="alphabetical")
    # numpy's own error would not say which argument it means
    for tie_break in TIE_BREAKS:
        with pytest.raises(ValueError, match="seed must be a non-negative "
                                             "int, got -1"):
            solve(g, tie_break=tie_break, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            DomainState(g, seed=-1, tie_break=tie_break)


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


def test_a_copied_state_runs_on_alone():
    # copy.deepcopy and pickle rebuild the state, and the copy shares
    # nothing with the original; run on, it ends where the step loop does
    g = crown_graph(5)  # every degree is 4, so the step loop seeds 0 too
    st_ = _state(g, None, [(0, 1)])
    for twin in (copy.deepcopy(st_), pickle.loads(pickle.dumps(st_))):
        assert type(twin) is DomainState
        v = twin.observe()
        twin.collapse(v)
        twin.propagate(v)
        assert twin.colored_count == 2 and st_.colored_count == 1
        while twin.colored_count < g.n:
            v = twin.observe()
            twin.collapse(v)
            twin.propagate(v)
        assert _left(twin) == _left(_step_pass(g))


def _clique_with_pendants(clique, pendants):
    """K_clique with pendant vertex clique + i hung on clique vertex
    i % clique."""
    us, ws = np.triu_indices(clique, 1)
    leaves = np.arange(pendants)
    edges = np.stack([np.concatenate([us, leaves % clique]),
                      np.concatenate([ws, clique + leaves])], axis=1)
    return Graph.from_edges(clique + pendants, edges)


def _peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make, k", [
    (lambda: star_graph(50_000), 2),
    (lambda: _clique_with_pendants(500, 100_000), 500)],
    ids=["star50k", "clique500+pendants100k"])
def test_sparse_graphs_with_a_dense_core_stay_on_the_heap(make, k):
    # _dense_pass's argmin costs O(n) a pick, which mean degree 2 or 4
    # cannot pay for; DomainState's heap grows with n and the colors
    g = make()
    assert not _is_dense(g)
    r, peak = _peak(solve, g)
    assert r.k == k and validate(g, r.coloring).ok
    assert r.stats["stale_pops"] > 0  # the heap ran
    assert peak < 64 * 2**20


def test_dense_layout_takes_less_memory_than_the_heap():
    # an int64 key and a uint64 word or two per vertex, where the heap
    # layout keeps a heap and five more Python lists.  With the two result
    # lists and the temporaries of a new word that is about 56 bytes a
    # vertex; a per-pass list such as indptr.tolist() would add about 36
    # more
    g = random_gnp(1000, 0.5, 1)
    assert _is_dense(g)
    dense, dense_peak = _peak(_dense_run, g)
    heap, heap_peak = _peak(_step_pass, g)
    assert dense == (heap.colors.tolist(), heap.sat)
    assert dense_peak < heap_peak
    assert dense_peak < 80 * g.n


@pytest.mark.parametrize("g", [random_gnp(1000, 0.006, 1),
                               random_gnp(1000, 0.5, 1)],
                         ids=["heap", "dense"])
def test_solve_takes_no_more_memory_than_the_steps(g):
    # the inlined pass holds no per-pass list or array (indptr.tolist()
    # alone would add about 36 bytes a vertex).  A peak moves by tens of
    # bytes with the int objects alive at its moment, and solve builds its
    # result after the pass, a few bytes a vertex; on the dense graph it
    # runs _dense_pass, whose state is smaller still
    steps = _peak(_step_pass, g)[1]
    assert _peak(_inlined_pass, g)[1] <= steps + 256
    assert _peak(solve, g)[1] <= steps + 4 * g.n


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
    """A state with the (vertex, color) pairs set, then propagated."""
    st_ = DomainState(g, m, seed=seed, tie_break=tie_break)
    for v, c in colored:
        st_.set_color(v, c)
    for v, _ in colored:
        assert st_.propagate(v) is True
    return st_


def _scan_saturation(g, colors, v):
    return len({colors[w] for w in g.neighbors(v).tolist() if colors[w]})


def test_observe_picks_minimum_entropy():
    # 1 sees colors {1, 2}, 0 sees {1}, 2 sees none
    g = Graph.from_edges(5, [(0, 3), (1, 3), (1, 4)])
    st_ = _state(g, 4, [(3, 1), (4, 2)])
    assert [st_.saturation(v) for v in range(3)] == [1, 2, 0]
    assert st_.observe() == 1
    assert st_.observe() == 1  # observing picks nothing


def test_observe_breaks_ties_by_degree():
    # vertices 0 and 1 tie at saturation 1; 0 has the higher degree
    g = Graph.from_edges(7, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
                             (1, 2), (1, 3), (1, 4)])
    st_ = _state(g, 4, [(v, 1) for v in range(2, 7)])
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
    st_ = _state(g, 2, [(0, 1), (2, 2)])
    assert st_.saturation(1) == 2
    assert st_.observe() == RESTART
    assert naive_propagate(g, st_.colors, 2, 2) is None
    # with one color, the first strike already empties a domain
    st_ = _state(g, 1, [(0, 1)])
    assert st_.saturation(1) == 1
    assert st_.observe() == RESTART
    assert naive_propagate(g, st_.colors, 1, 0) is None


def test_observe_requires_uncolored():
    g = path_graph(2)
    st_ = _state(g, 2, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        st_.observe()


def test_observe_random_mode_stays_on_minimum():
    # 1 and 2 tie at the highest saturation; the seed picks between them
    g = Graph.from_edges(6, [(1, 5), (2, 5)])
    picks = set()
    for seed in range(30):
        st_ = _state(g, 3, [(5, 1)], seed=seed, tie_break="random")
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
        st_ = _state(g, None, pairs)
        assert {v: st_.saturation(v) for v in uncolored} == sat
        assert st_.observe() == expected
        st_ = _state(g, m, pairs)
        assert st_.observe() == (expected if sat[expected] < m else RESTART)
        for seed in range(5):
            st_ = _state(g, None, pairs, seed=seed, tie_break="random")
            assert sat[st_.observe()] == sat[expected]


# -- collapse ---------------------------------------------------------------

def test_collapse_takes_minimum_color():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    st_ = _state(g, 5, [(1, 1), (2, 3), (3, 4)])
    assert st_.collapse(0) == 2
    assert st_.colors[0] == 2


def test_collapse_singleton():
    # 0 sees colors 2 and 3 of three: one color is left, and the reference
    # cascade colors 0 with it
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    st_ = _state(g, 3, [(1, 2), (2, 3)])
    assert st_.saturation(0) == 2
    ref = naive_propagate(g, st_.colors, 3, 2)
    assert st_.collapse(0) == 1 == ref[0][0]


def test_collapse_min_is_set_min():
    g = Graph.from_edges(2, [(0, 1)])
    st_ = _state(g, 3, [(1, 2)])
    colors, domains = naive_propagate(g, st_.colors, 3, 1)
    assert domains[0] == {1, 3}
    assert len(domains[0]) == 3 - st_.saturation(0)
    assert st_.collapse(0) == min(domains[0])


def test_collapse_empty_domain_is_an_error():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    st_ = _state(g, 2, [(1, 1), (2, 2)])
    assert st_.observe() == RESTART
    with pytest.raises(ValueError):
        st_.collapse(0)  # no color left in the budget
    with pytest.raises(ValueError):
        st_.collapse(1)  # already colored


# -- propagate --------------------------------------------------------------

def test_restriction_stops_at_wide_domains():
    # 0 -- 1 -- 2; coloring 0 cannot reach 2 while 1 keeps two options
    g = path_graph(3)
    st_ = _state(g, 3, [(0, 1)])
    colors, domains = naive_propagate(g, st_.colors, 3, 0)
    assert colors.tolist() == [1, 0, 0]  # the reference cascades nothing
    assert domains == [None, {2, 3}, {1, 2, 3}]
    assert [st_.saturation(v) for v in (1, 2)] == [1, 0]
    assert st_.forced_count == 0


def test_restriction_cascades_through_unit_domains():
    # 1 is left with the single color 2: it is picked next, as the cascade
    # would color it, and its strike reaches 2
    g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    st_ = _state(g, 3, [(3, 3), (0, 1)])
    colors, domains = naive_propagate(g, st_.colors, 3, 0)
    assert colors.tolist() == [1, 2, 0, 3] and domains[2] == {1, 3}
    assert st_.saturation(1) == 2
    assert st_.observe() == 1
    assert st_.collapse(1) == 2
    assert st_.propagate(1) is True
    assert np.array_equal(st_.colors, colors)
    assert st_.saturation(2) == 3 - len(domains[2])
    assert st_.forced_count == 1


def test_path_5_cascade_colors_everything():
    # every vertex after the first is picked with one color left, as the
    # recomputing reference cascade colors them
    g = path_graph(5)
    st_ = _state(g, 2, [(0, 1)])
    snapshot = st_.colors
    while st_.colored_count < g.n:
        v = st_.observe()
        assert v != RESTART
        st_.collapse(v)
        st_.propagate(v)
    assert st_.colors.tolist() == [1, 2, 1, 2, 1]
    assert st_.forced_count == 4
    ref = naive_propagate(g, snapshot, 2, 0)
    assert ref is not None
    assert np.array_equal(ref[0], st_.colors)


def test_triangle_with_two_colors_restarts():
    g = complete_graph(3)
    st_ = _state(g, 2, [(0, 1)])
    v = st_.observe()
    assert st_.collapse(v) == 2
    assert st_.propagate(v) is True
    # the third vertex sees both colors: its domain is empty
    assert st_.saturation(3 - v) == 2
    assert st_.observe() == RESTART
    assert naive_propagate(g, st_.colors, 2, v) is None


def test_edge_with_one_color_restarts_on_empty_domain():
    g = path_graph(2)
    st_ = DomainState(g, 1)
    st_.set_color(0, 1)
    assert st_.propagate(0) is True
    assert st_.saturation(1) == 1
    assert st_.observe() == RESTART


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("g, m", [(complete_graph(3), 2), (path_graph(2), 1),
                                  (cycle_graph(5), 2)],
                         ids=["K3", "edge", "C5"])
def test_propagate_returns_true_past_the_budget(g, m, tie_break):
    # a caller that loops on a falsy propagate (retrying with one more
    # color) would spin forever; the dead end shows only at observe
    for seed in range(5):
        st_ = DomainState(g, m, seed=seed, tie_break=tie_break)
        v = int(np.argmax(g.degrees))
        st_.set_color(v, 1)
        while True:
            assert st_.propagate(v) is True
            assert st_.colored_count < g.n  # m colors cannot do
            v = st_.observe()
            if v == RESTART:
                break
            st_.collapse(v)
        colors = st_.colors.tolist()
        assert any(_scan_saturation(g, colors, u) >= m
                   for u in range(g.n) if not colors[u])


def test_propagate_requires_colored_start():
    g = path_graph(2)
    st_ = DomainState(g, 2)
    with pytest.raises(ValueError):
        st_.propagate(0)


@pytest.mark.parametrize("v", [-1, 3])
def test_steps_reject_vertex_ids_outside_the_graph(v):
    # a negative id would otherwise index the per-vertex lists from the end
    g = path_graph(3)
    st_ = DomainState(g)
    st_.set_color(1, 1)
    for step, args in ((st_.set_color, (v, 1)), (st_.collapse, (v,)),
                       (st_.propagate, (v,)), (st_.saturation, (v,))):
        with pytest.raises(ValueError, match="outside 0..2"):
            step(*args)
    assert st_.colors.tolist() == [0, 1, 0] and st_.colored_count == 1


def test_a_budget_above_n_still_bounds_colors_by_n():
    # no saturation reaches n, so colors past n can never be needed; a
    # color of 10**8 would otherwise size a bitset
    big = DomainState(path_graph(2), 10**8)
    with pytest.raises(ValueError, match=r"outside 1\.\.2"):
        big.set_color(0, 10**8)
    assert big.colored_count == 0
    # and observe gives the verdicts of a budget of 5 at every step
    for g in (path_graph(2), complete_graph(3), complete_graph(5),
              cycle_graph(5), star_graph(4)):
        states = [DomainState(g, m) for m in (10**8, 5)]
        for st_ in states:
            st_.set_color(0, 1)
            st_.propagate(0)
        while states[0].colored_count < g.n:
            picks = {st_.observe() for st_ in states}
            assert len(picks) == 1 and RESTART not in picks
            v = picks.pop()
            assert len({st_.collapse(v) for st_ in states}) == 1
            for st_ in states:
                st_.propagate(v)
        assert states[0].colors.tolist() == states[1].colors.tolist()


def test_propagate_keeps_colored_neighbor_exclusion():
    # after every step, each uncolored vertex's saturation is exactly the
    # number of distinct colors among its colored neighbors, and its
    # reference domain is the budget minus those colors
    rng = np.random.default_rng(3)
    for trial in range(40):
        n = int(rng.integers(3, 14))
        g = random_gnp(n, 0.5, seed=100 + trial)
        m = max(g.max_degree, 1) + int(rng.integers(0, 3))
        v = int(rng.integers(0, n))
        st_ = _state(g, m, [(v, 1)])
        while True:
            colors = st_.colors.tolist()
            for u in range(n):
                if not colors[u]:
                    seen = {colors[w] for w in g.neighbors(u).tolist()}
                    assert st_.saturation(u) == len(seen - {0})
            if st_.colored_count == n:
                break
            v = st_.observe()
            if v == RESTART:
                break
            st_.collapse(v)
            assert st_.propagate(v) is True


def test_propagate_only_shrinks_domains():
    # saturations never fall, so domains (m minus saturation) never grow;
    # the reference domains after the strike sit inside the budget
    g = crown_graph(5)
    st_ = DomainState(g, 4)
    st_.set_color(0, 1)
    before = [st_.saturation(v) for v in range(1, g.n)]
    assert st_.propagate(0) is True
    after = [st_.saturation(v) for v in range(1, g.n)]
    assert all(a >= b for a, b in zip(after, before))
    _, domains = naive_propagate(g, st_.colors, 4, 0)
    for v in range(1, g.n):
        assert domains[v] <= {1, 2, 3, 4}
        assert len(domains[v]) == 4 - after[v - 1]


# -- forced colorings vs. observation ----------------------------------------

def test_star_center_seed_forces_nothing_with_wide_budget():
    g = star_graph(5)
    st_ = DomainState(g, 5)
    st_.set_color(0, 1)
    assert st_.propagate(0) is True
    assert st_.forced_count == 0
    assert all(st_.saturation(v) == 1 for v in range(1, 6))
    colors, domains = naive_propagate(g, st_.colors, 5, 0)
    assert colors.tolist() == [1, 0, 0, 0, 0, 0]
    assert domains[1:] == [{2, 3, 4, 5}] * 5


# -- the dense pass -----------------------------------------------------------
# graphs the rule routes to _dense_pass, checked against DomainState's steps

_DENSE = {
    "gnp320_0.9": lambda: random_gnp(320, 0.9, 1),
    "gnp400_0.5": lambda: random_gnp(400, 0.5, 2),
    "gnp500_0.7": lambda: random_gnp(500, 0.7, 3),
    "gnp800_0.5": lambda: random_gnp(800, 0.5, 4),
    "K200": lambda: complete_graph(200),
    "crown200": lambda: crown_graph(200),
}
_BUILT = {}


def _dense_graph(name):
    if name not in _BUILT:
        _BUILT[name] = _DENSE[name]()
    return _BUILT[name]


def _step_pass(g, tie_break="degree", seed=0):
    """solve's pass one step at a time: the reference for both passes.
    Returns the state it leaves."""
    st_ = DomainState(g, seed=seed, tie_break=tie_break)
    v = int(np.argmax(g.degrees))
    st_.set_color(v, 1)
    st_.propagate(v)
    for _ in range(g.n - 1):
        v = st_.observe()
        st_.collapse(v)
        st_.propagate(v)
    return st_


def _left(st_):
    """What a pass leaves in a state: the colors, the saturation each vertex
    was colored at, the stale pops and colored count, and saturation(v)."""
    return (st_.colors.tolist(), st_.sat, st_.stale_pops, st_.colored_count,
            [st_.saturation(v) for v in range(st_.g.n)])


def _inlined_pass(g, tie_break="degree", seed=0):
    st_ = DomainState(g, seed=seed, tie_break=tie_break)
    st_._pass(int(np.argmax(g.degrees)))
    return st_


def _dense_run(g, tie_break="degree", seed=0):
    """_dense_pass from solve's seed vertex, on any graph: (colors, sat)."""
    return _dense_pass(g, int(np.argmax(g.degrees)), tie_break, seed)


@given(g=_graphs(), tie_break=st.sampled_from(TIE_BREAKS),
       seed=st.integers(0, 1000))
def test_pass_leaves_the_state_the_steps_leave(g, tie_break, seed):
    # either pass runs any graph, so _dense_pass is forced onto every family
    steps = _step_pass(g, tie_break, seed)
    assert _left(_inlined_pass(g, tie_break, seed)) == _left(steps)
    assert _dense_run(g, tie_break, seed) == (steps.colors.tolist(),
                                              steps.sat)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
# the ids name the two saturation layouts: the heap's pass is
# DomainState._pass, the dense one's is _dense_pass
@pytest.mark.parametrize("layout", ["heap", "dense"],
                         ids=["_HeapState", "_DenseState"])
@pytest.mark.parametrize("name", ["gnp500_0.7", "K200", "crown200"])
def test_pass_leaves_the_state_the_steps_leave_above_the_rule(
        name, layout, tie_break):
    # graphs the rule routes to _dense_pass: more than 64 colors on K200
    # and gnp500_0.7, so several color words, and many heap compactions
    g = _dense_graph(name)
    steps = _step_pass(g, tie_break, 5)
    if layout == "heap":
        assert _left(_inlined_pass(g, tie_break, 5)) == _left(steps)
    else:
        assert _dense_run(g, tie_break, 5) == (steps.colors.tolist(),
                                               steps.sat)


def test_pass_keeps_the_steps_checks():
    g = path_graph(3)
    for v in (-1, 3):
        with pytest.raises(ValueError, match="outside 0..2"):
            DomainState(g)._pass(v)
    st_ = DomainState(g)
    st_.set_color(1, 1)
    with pytest.raises(ValueError, match="vertex 1 already colored"):
        st_._pass(1)
    assert st_.colored_count == 1
    # one color: where observe would return RESTART, the next color
    # breaks the budget; the state holds the one colored vertex
    st_ = DomainState(g, 1)
    with pytest.raises(ValueError, match=r"color 2 outside 1\.\.1"):
        st_._pass(1)
    assert (st_.colors.tolist(), st_.colored_count) == ([0, 1, 0], 1)
    assert [st_.saturation(v) for v in range(3)] == [1, 0, 1]


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("name", sorted(_DENSE))
def test_dense_layout_solves_as_the_heap_does(name, tie_break):
    g = _dense_graph(name)
    assert _is_dense(g)
    r = solve(g, tie_break=tie_break, seed=7)
    heap = _step_pass(g, tie_break, 7)
    assert r.coloring.assignment.tolist() == heap.colors.tolist()
    # and the paper's counters are those of its loop run by hand
    assert (r.coloring.assignment.tolist(), r.restarts, r.final_m,
            r.forced_colorings) == _solve_by_hand(g, tie_break, 7)
    assert r.stats == {"selections": g.n - 1, "strikes": sum(heap.sat),
                       "stale_pops": 0}
    if tie_break == "degree":
        assert r.coloring.assignment.tobytes() == \
            dsatur(g).coloring.assignment.tobytes()
