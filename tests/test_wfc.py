import copy
import hashlib
import heapq
import pickle
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from util import (complete_graph, cycle_graph, naive_propagate, paper_wfc,
                  path_graph)
from wfcolor.baselines import dsatur
from wfcolor.coloring import validate
from wfcolor.graph import (Graph, barabasi_albert, crown_graph, random_gnp,
                           star_graph)
from wfcolor.oracle import exact_chromatic
from wfcolor.wfc import (BAND_ROWS, TIE_BREAKS, _compact, _dense_pass,
                         _heap_pass, _is_dense, _words_fit, solve)


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


def test_empty_graph_colors():
    # no vertex to seed or pick: no counter may count the seed's pick
    g = Graph.from_edges(0, [])
    for tie_break in TIE_BREAKS:
        r = solve(g, tie_break=tie_break)
        assert r.coloring.assignment.tolist() == [] and r.k == 0
        assert (r.restarts, r.final_m, r.forced_colorings) == (0, 1, 0)
        assert r.stats == {"selections": 0, "strikes": 0, "stale_pops": 0,
                           "layout": "dense"}
    # and the arguments are checked all the same
    with pytest.raises(ValueError):
        solve(g, tie_break="alphabetical")


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
    # numpy's own error would not say which argument it means; degree mode
    # uses no seed but refuses the same ones
    for tie_break in TIE_BREAKS:
        for seed in (-1, np.int64(-1)):
            with pytest.raises(ValueError, match="seed must be a non-negative "
                                                 "int, got -1"):
                solve(g, tie_break=tie_break, seed=seed)
        for seed in (2.5, True, "3"):
            with pytest.raises(ValueError, match="is not an integer"):
                solve(g, tie_break=tie_break, seed=seed)


def test_array_holding_values_compare_and_hash_by_identity():
    # generated equality would compare the arrays, and raise
    g = crown_graph(3)
    r = solve(g)
    for a, b in ((g, crown_graph(3)), (r.coloring, solve(g).coloring),
                 (r, solve(g))):
        assert a == a and a != b
        assert len({a, b, a}) == 2


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


@given(g=_graphs(), tie_break=st.sampled_from(TIE_BREAKS),
       seed=st.integers(0, 1000))
def test_solve_equals_paper_wfc(g, tie_break, seed):
    # the paper's loop with every domain recomputed at each step, cascades
    # and restarts included: the same colors and counters, and one strike
    # for each color a saturation counts
    r = solve(g, tie_break=tie_break, seed=seed)
    colors, restarts, final_m, forced, sat = paper_wfc(g, tie_break, seed)
    assert (r.coloring.assignment.tolist(), r.restarts, r.final_m,
            r.forced_colorings, r.stats["strikes"]) == \
        (colors.tolist(), restarts, final_m, forced, sum(sat))


@given(n=st.integers(1, 80), p=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
       seed=st.integers(0, 10_000))
def test_solve_is_networkx_dsatur(n, p, seed):
    # an oracle written outside this repo: networkx's DSATUR picks the
    # highest saturation, then the highest degree, then the first node in
    # insertion order, and numbers its colors from 0
    nx = pytest.importorskip("networkx")
    g = random_gnp(n, p, seed)
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    ref = nx.greedy_color(G, "saturation_largest_first")
    assert solve(g).coloring.assignment.tolist() == \
        [ref[v] + 1 for v in range(g.n)]


# -- work counters -----------------------------------------------------------

@pytest.mark.parametrize("leaves", [1, 2, 7, 300])
def test_star_strikes_once_per_leaf(leaves):
    # the hub's color is struck from every leaf; a leaf strikes nothing,
    # because its only neighbor is already colored
    r = solve(star_graph(leaves))
    assert r.stats["strikes"] == leaves
    assert r.stats["selections"] == leaves
    # counted by hand: the hub is picked at saturation 0, with an empty
    # heap, and each leaf, a pendant, is colored at the hub's strike with
    # no key and no pick.  So the heap stays empty, and no key is popped
    assert r.stats["stale_pops"] == 0


def test_strikes_are_bounded_by_degree_and_colors():
    # a vertex is struck at most once per neighbor and once per color
    for seed in range(40):
        g = (random_gnp(30 + seed, [0.05, 0.2, 0.5, 0.9][seed % 4], seed)
             if seed % 5 else barabasi_albert(60 + seed, 1 + seed % 4, seed))
        r = solve(g)
        bound = int(np.minimum(g.degrees, r.k).sum())
        assert r.stats["strikes"] <= bound
        assert r.stats["selections"] == g.n - 1
        # every popped key was pushed by a strike
        assert r.stats["stale_pops"] <= r.stats["strikes"]


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


@pytest.mark.parametrize("make, k, per_vertex", [
    (lambda: star_graph(50_000), 2, 50),
    (lambda: _clique_with_pendants(500, 100_000), 500, 100)],
    ids=["star50k", "clique500+pendants100k"])
def test_sparse_graphs_with_a_dense_core_stay_on_the_heap(make, k,
                                                         per_vertex):
    # _dense_pass's argmin costs O(n) a pick, which mean degree 2 or 4
    # cannot pay for; _heap_pass's heap grows with the struck vertices and
    # the colors.  Every leaf is a pendant, colored at its neighbor's
    # strike with no key, so its bitset never grows: about 40 bytes a
    # vertex on the star, the pass's four lists and the int32 rank and
    # order, and 83 on the clique, whose strikes leave up to 96,000 keys
    # in the heap before a rebuild, as the heap may hold twice the
    # uncolored count and most uncolored vertices are pendants (CPython
    # 3.11)
    g = make()
    assert not _is_dense(g)
    r, peak = _peak(solve, g)
    assert r.k == k and validate(g, r.coloring).ok
    assert r.stats["layout"] == "heap"
    assert peak < 64 * 2**20
    assert peak <= per_vertex * g.n


def test_dense_layout_takes_less_memory_than_the_heap():
    # an int64 key, an int32 color and a uint64 word or two per vertex,
    # where the heap pass keeps a heap, four Python lists and two int32
    # arrays.  With the two result lists, built once the words are freed,
    # that is about 42 bytes a vertex; a per-pass list of colors or
    # saturations would add 8, and one such as indptr.tolist() about 36
    g = random_gnp(1000, 0.5, 1)
    assert _is_dense(g)
    dense, dense_peak = _peak(_run, _dense_pass, g)
    heap, heap_peak = _peak(_run, _heap_pass, g)
    assert dense == (*heap[:2], 0)
    assert dense_peak < heap_peak
    assert dense_peak < 50 * g.n


@pytest.mark.parametrize("g, per_vertex", [(random_gnp(1000, 0.006, 1), 108),
                                           (random_gnp(1000, 0.5, 1), 200)],
                         ids=["heap", "dense"])
def test_solve_takes_no_more_memory_than_the_steps(g, per_vertex):
    # the heap pass's state is four lists of n slots (keys, colors,
    # saturations and bitsets), a heap of the struck vertices' keys and
    # the int32 rank and order, 8 bytes a vertex; the CSR is read in place
    # through memoryviews.  That is 100 bytes a vertex on the sparse graph,
    # 179 on the dense one, whose 116 colors widen the bitsets and strike
    # every vertex (CPython 3.11).  A heap key for every vertex from the
    # start would add about 10 on the sparse graph, and a per-pass list of
    # CSR offsets, such as indptr.tolist(), about 36.  solve builds its
    # result after the pass, a few bytes a vertex; on the dense graph it
    # runs _dense_pass, whose state is smaller still
    heap = _peak(_run, _heap_pass, g)[1]
    assert heap <= per_vertex * g.n
    assert _peak(solve, g)[1] <= heap + 4 * g.n


def _assert_compact_rebuilds(monkeypatch, run):
    """run(g), a whole heap pass or the steps, on three graphs: it rebuilds
    its heap, and each rebuild is a heap of exactly the live keys of the
    saturated uncolored vertices, the negative ones, made once the heap
    holds more than twice the uncolored count."""
    calls = []

    def compact(heap, key, n):
        out = _compact(heap, key, n)
        live = sorted(k for k in key if k < 0)
        uncolored = sum(k != n * n for k in key)
        calls.append((len(heap), uncolored, sorted(out) == live,
                      all(out[(i - 1) // 2] <= out[i]
                          for i in range(1, len(out)))))
        return out

    monkeypatch.setattr("wfcolor.wfc._compact", compact)
    for seed in range(3):
        g = random_gnp(150, [0.1, 0.5, 0.9][seed], seed)
        calls.clear()
        run(g)
        assert calls
        for size, uncolored, exact, is_heap in calls:
            # before this pick's strikes the heap held at most twice the
            # uncolored count, the picked vertex included
            assert 2 * uncolored < size <= 2 * (uncolored + 1) + g.max_degree
            assert exact and is_heap


def test_heap_stays_compact(monkeypatch):
    # lazy deletion leaves old keys behind; a vertex of saturation 0 has
    # key 0 and no heap entry
    _assert_compact_rebuilds(monkeypatch, lambda g: _run(_heap_pass, g))


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_saturation_0_picks_walk_the_rank_order(tie_break):
    # 670 isolated vertices and many small components: the heap runs dry
    # at the end of each component, and the next pick, at saturation 0, is
    # the first uncolored vertex in rank order, found by the walk.  A
    # vertex no strike reaches gets no key, so every popped key was pushed
    # by a strike, and the pass keeps about 45 bytes a vertex (94 with a
    # key for every vertex from the start; CPython 3.11)
    g = random_gnp(3000, 0.0005, 1)
    assert not _is_dense(g)
    (colors, sat, stale_pops), peak = _peak(_run, _heap_pass, g, tie_break, 7)
    assert sat.count(0) > 700
    assert (colors, sat) == _run(_dense_pass, g, tie_break, 7)[:2]
    assert stale_pops <= sum(sat)
    assert peak <= 70 * g.n
    if tie_break == "degree":
        assert solve(g).coloring.assignment.tobytes() == \
            dsatur(g).coloring.assignment.tobytes()


# solve's stats on fixed graphs as (strikes, stale_pops) in each tie mode,
# random ties drawn from seed 7.  The heap pops its keys in (saturation,
# rank) order whatever else a key carries, so these counts, stale pops
# included, are fixed.  A pick off the heap's top replaces its own
# outdated key with its first push, one stale pop; star800's leaves are
# pendants, colored at the hub's strike, so it pushes and pops no key
_HEAP_DISCIPLINE = {
    "gnp1000_0.006": (lambda: random_gnp(1000, 0.006, 1), "heap",
                      {"degree": (2276, 1122), "random": (2280, 1049)}),
    "star800": (lambda: star_graph(800), "heap",
                {"degree": (800, 0), "random": (800, 0)}),
    "crown150": (lambda: crown_graph(150), "heap",
                 {"degree": (299, 298), "random": (299, 298)}),
    "gnp250_0.5": (lambda: random_gnp(250, 0.5, 401), "dense",
                   {"degree": (6478, 0), "random": (6580, 0)}),
}


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("name", sorted(_HEAP_DISCIPLINE))
def test_heap_pops_keep_their_recorded_order(name, tie_break):
    make, layout, recorded = _HEAP_DISCIPLINE[name]
    g = make()
    strikes, stale_pops = recorded[tie_break]
    assert solve(g, tie_break=tie_break, seed=7).stats == {
        "selections": g.n - 1, "strikes": strikes, "stale_pops": stale_pops,
        "layout": layout}


# -- pendants ------------------------------------------------------------------
# _heap_pass colors a vertex of degree 1 at the strike that reaches it, with
# no key and no pick.  On graphs rich in such leaves it still leaves
# _dense_pass's colors and saturations, which pick every vertex, and solve
# still colors as dsatur does

def _matching(pairs):
    """pairs disjoint edges (2i, 2i + 1): every vertex has degree 1."""
    return Graph.from_edges(2 * pairs, [(2 * i, 2 * i + 1)
                                        for i in range(pairs)])


def _caterpillar(spine, legs):
    """A path 0..spine-1 with legs leaves hung on each of its vertices."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine)
              for j in range(legs)]
    return Graph.from_edges(spine * (1 + legs), edges)


_LEAFY = {
    "ba300_1": lambda: barabasi_albert(300, 1, 1),
    "ba1000_1": lambda: barabasi_albert(1000, 1, 2),
    "matching50": lambda: _matching(50),
    "caterpillar40_3": lambda: _caterpillar(40, 3),
    "star1": lambda: star_graph(1),
    "clique30+pendants200": lambda: _clique_with_pendants(30, 200),
}


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("name", sorted(_LEAFY))
def test_pendants_leave_the_colors_of_every_pick(name, tie_break):
    g = _LEAFY[name]()
    assert (g.degrees == 1).any() and not _is_dense(g)
    colors, sat, stale_pops = _run(_heap_pass, g, tie_break, 7)
    assert (colors, sat) == _run(_dense_pass, g, tie_break, 7)[:2]
    r = solve(g, tie_break=tie_break, seed=7)
    assert r.coloring.assignment.tolist() == colors
    assert r.stats == {"selections": g.n - 1, "strikes": sum(sat),
                       "stale_pops": stale_pops, "layout": "heap"}
    if g.n <= 300:
        # the paper's loop, cascade and counters included
        ref, restarts, final_m, forced, ref_sat = paper_wfc(g, tie_break, 7)
        assert (colors, sat) == (ref.tolist(), ref_sat)
        assert (r.restarts, r.final_m, r.forced_colorings) == \
            (restarts, final_m, forced)
    if tie_break == "degree":
        assert r.coloring.assignment.tobytes() == \
            dsatur(g).coloring.assignment.tobytes()


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_a_matching_walks_to_each_pairs_first_vertex(tie_break):
    # every vertex is a pendant: after the seed vertex 0, the walk picks
    # whichever of a pair comes first in rank order, at saturation 0, and
    # its strike colors the other, so no key is ever pushed
    g = _matching(50)
    colors, sat, stale_pops = _run(_heap_pass, g, tie_break, 7)
    rank = np.argsort(np.random.default_rng(7).permutation(g.n)
                      if tie_break == "random" else np.arange(g.n))
    first = [0] + [min(2 * i, 2 * i + 1, key=rank.__getitem__)
                   for i in range(1, 50)]
    assert [v for v in range(g.n) if sat[v] == 0] == sorted(first)
    assert all(colors[v] == 1 and colors[v ^ 1] == 2 for v in first)
    assert sat.count(1) == 50 and stale_pops == 0


def test_a_star_pushes_no_key(monkeypatch):
    # the hub's strikes color all 800 leaves; a BA tree, whose inner
    # vertices are struck, shows that the wrappers see the pushes
    pushed = []
    for name in ("heappush", "heapreplace"):
        monkeypatch.setattr(f"wfcolor.wfc.{name}",
                            lambda heap, k, real=getattr(heapq, name):
                            pushed.append(k) or real(heap, k))
    r = solve(star_graph(800))
    assert r.k == 2 and pushed == [] and r.stats["stale_pops"] == 0
    assert solve(barabasi_albert(300, 1, 1)).stats["layout"] == "heap"
    assert pushed


# -- the dense pass -----------------------------------------------------------
# graphs the rule routes to _dense_pass.  Too large for util.paper_wfc,
# they are checked against dsatur with degree ties and against the other
# pass in both tie modes

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


def _run(pass_, g, tie_break="degree", seed=0):
    """pass_ (_heap_pass or _dense_pass) from solve's seed vertex, on any
    graph: (colors, sat, stale pops)."""
    return pass_(g, int(np.argmax(g.degrees)), tie_break, seed)


@given(g=_graphs(), tie_break=st.sampled_from(TIE_BREAKS),
       seed=st.integers(0, 1000))
def test_pass_leaves_the_state_the_steps_leave(g, tie_break, seed):
    # the steps of the paper's loop, run by util.paper_wfc: either pass
    # gives its colors and the saturation each vertex was colored at.
    # Either pass runs any graph, so _dense_pass is forced onto every family
    colors, _, _, _, sat = paper_wfc(g, tie_break, seed)
    heap = _run(_heap_pass, g, tie_break, seed)
    assert heap[:2] == (colors.tolist(), sat)
    assert _run(_dense_pass, g, tie_break, seed) == (*heap[:2], 0)
    # every popped key was pushed by a strike
    assert heap[2] <= sum(sat)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("pass_", [_heap_pass, _dense_pass],
                         ids=["heap", "dense"])
@pytest.mark.parametrize("name", ["gnp500_0.7", "K200", "crown200"])
def test_pass_leaves_the_state_the_steps_leave_above_the_rule(
        name, pass_, tie_break):
    # more than 64 colors on K200 and gnp500_0.7, so several color words,
    # and many heap compactions
    g = _dense_graph(name)
    other = _dense_pass if pass_ is _heap_pass else _heap_pass
    colors, sat, stale_pops = _run(pass_, g, tie_break, 5)
    assert (colors, sat) == _run(other, g, tie_break, 5)[:2]
    if tie_break == "degree":
        assert colors == dsatur(g).coloring.assignment.tolist()
    # every popped key was pushed by a strike
    assert stale_pops <= (sum(sat) if pass_ is _heap_pass else 0)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("name", sorted(_DENSE))
def test_dense_layout_solves_as_the_heap_does(name, tie_break):
    g = _dense_graph(name)
    assert _is_dense(g)
    r = solve(g, tie_break=tie_break, seed=7)
    colors, sat, _ = _run(_heap_pass, g, tie_break, 7)
    assert r.coloring.assignment.tolist() == colors
    # the paper's counters come from the saturations, as on the small
    # graphs where test_solve_equals_paper_wfc checks them
    m0 = max(g.max_degree, 1)
    assert r.final_m == m0 + r.restarts and r.restarts == int(r.k > m0)
    assert r.forced_colorings == sat.count(r.final_m - 1)
    assert r.stats == {"selections": g.n - 1, "strikes": sum(sat),
                       "stale_pops": 0, "layout": "dense"}
    if tie_break == "degree":
        assert r.coloring.assignment.tobytes() == \
            dsatur(g).coloring.assignment.tobytes()


# -- the band ------------------------------------------------------------------
# graphs below the dense rule and above the band's floor, where _is_dense
# looks for a triangle at solve's seed vertex, with the sha256 of
# util.paper_wfc's int32 colors in each tie mode (random ties drawn from
# seed 7).  paper_wfc recomputes every domain at each step, 1-22 s a run on
# these, so the digests were recorded from it once and it reruns live on
# the smallest graph only.  The planted clique takes 80 colors, so its
# dense pass uses two color words

def _planted_clique(n, p, size, seed):
    """random_gnp(n, p, seed) with vertices 0..size-1 made a clique."""
    us, ws = np.triu_indices(size, 1)
    edges = set(random_gnp(n, p, seed).edges()) | set(zip(us.tolist(),
                                                          ws.tolist()))
    return Graph.from_edges(n, sorted(edges))


def _random_bipartite(half, p, seed):
    """Parts 0..half-1 and half..2*half-1, each pair across them an edge
    with probability p."""
    us, ws = np.nonzero(np.random.default_rng(seed).random((half, half)) < p)
    return Graph.from_edges(2 * half, np.stack([us, ws + half], axis=1))


_BAND = {
    "gnp250_0.5": (lambda: random_gnp(250, 0.5, 401), {
        "degree": "f92f76c378f871467e171aea23dee4ffa987805e657ab6ace3d10c864ea4799c",
        "random": "2cf7362a877440bf783b3736ff7bf1f90e181e46e1642869e7bee628e161b909"}),
    "gnp500_0.2": (lambda: random_gnp(500, 0.2, 1), {
        "degree": "13ac4df1209dfcc7e2eb281ad650fffbd4b01dd76aace86c31d2cf4a15ee67ed",
        "random": "1fd0a3585cb1bca07b8ada1f44ec97a1f054f86de8ba1e1770f2cbea950209e9"}),
    "gnp1000_0.1": (lambda: random_gnp(1000, 0.1, 3), {
        "degree": "8b854dcce622a34db1146f0d2be67c70257147ed7089095862f24b9d9ff09064",
        "random": "5c4aff17df4ef9e3bce17e231ccd3b9800999b3d0bf89bf83f78320225c848c7"}),
    "clique80_in_gnp1100": (lambda: _planted_clique(1100, 0.07, 80, 1), {
        "degree": "b3eb98fa2bb7a9feb5a6b361cc86be51e6502f6715b5bef913566c909797477d",
        "random": "c7375bc52206ad7639c35783af110eede0c605e818109d0bddbc5308810ced9e"}),
}


def _sha(colors):
    return hashlib.sha256(np.asarray(colors, dtype=np.int32).tobytes()).hexdigest()


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("name", sorted(_BAND))
def test_band_graphs_run_dense_from_the_first_pick(name, tie_break):
    # each band graph runs the dense pass from its first pick, and both
    # passes give the paper loop's recorded colors
    make, digests = _BAND[name]
    g = make()
    assert 2 * g.m < 150 * g.n  # below the dense rule
    r = solve(g, tie_break=tie_break, seed=7)
    assert r.stats["layout"] == "dense"
    heap = _run(_heap_pass, g, tie_break, 7)
    dense = _run(_dense_pass, g, tie_break, 7)
    assert r.coloring.assignment.tolist() == heap[0] == dense[0]
    assert _sha(heap[0]) == digests[tie_break]
    assert heap[1] == dense[1] and r.stats["strikes"] == sum(heap[1])
    assert r.forced_colorings == heap[1].count(r.final_m - 1)
    assert r.stats["stale_pops"] == 0
    if tie_break == "degree":
        assert r.coloring.assignment.tobytes() == \
            dsatur(g).coloring.assignment.tobytes()


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_band_digests_are_the_paper_loops(tie_break):
    make, digests = _BAND["gnp250_0.5"]
    assert _sha(paper_wfc(make(), tie_break, 7)[0]) == digests[tie_break]


@pytest.mark.parametrize("make, layout", [
    (lambda: crown_graph(150), "heap"),
    (lambda: _random_bipartite(500, 0.2, 1), "heap"),
    (lambda: random_gnp(1000, 0.006, 3), "heap"),
    (lambda: star_graph(800), "heap"),
    *[(make, "dense") for make, _ in _BAND.values()],
    (lambda: random_gnp(1000, 0.5, 1), "dense"),
    (lambda: random_gnp(700, 0.5, 2), "dense"),
], ids=["crown150", "bipartite1000_0.2", "gnp1000_0.006", "star800",
        *_BAND, "gnp1000_0.5", "gnp700_0.5"])
def test_layout_follows_the_rule(make, layout):
    # crowns and random bipartite graphs, which strike about 0.1 colors an
    # arc, have no triangle and keep the heap; G(n,p) in the band closes
    # one at its seed vertex; gnp1000_0.006 and star800 are below the band
    # and the last two are above the dense rule
    g = make()
    r = solve(g)
    assert r.stats["layout"] == layout == ("dense" if _is_dense(g) else "heap")
    assert r.coloring.assignment.tolist() == _run(_heap_pass, g)[0]


def _cliques(size, count):
    """count disjoint copies of K_size: mean degree size - 1, and every
    vertex on a triangle."""
    us, ws = np.triu_indices(size, 1)
    base = np.repeat(np.arange(count) * size, us.size)
    return Graph.from_edges(size * count, np.stack(
        [np.tile(us, count) + base, np.tile(ws, count) + base], axis=1))


@pytest.mark.parametrize("size, count, dense", [
    (61, 33, False), (62, 32, True), (71, 282, False), (72, 278, True)],
    ids=["d60_n2013", "d61_n1984", "d70_n20022", "d71_n20016"])
def test_band_floor_grows_with_n(size, count, dense):
    # the floor is 60 + n / 2000: about 61 at n = 2,000 and 70 at 20,000
    assert _is_dense(_cliques(size, count)) == dense


def _crown_plus(*edges):
    """crown(150) with the matching edge (0, 150), which keeps vertex 0 the
    seed and the graph bipartite, and the given edges."""
    g = crown_graph(150)
    return Graph.from_edges(g.n, [*g.edges(), (0, 150), *edges])


@pytest.mark.parametrize("edges, dense", [
    ((), False),
    # the last scanned row, vertex 0's BAND_ROWS-th neighbor's, holds the
    # next neighbor of vertex 0: a triangle at the seed
    (((149 + BAND_ROWS, 150 + BAND_ROWS),), True),
    # the same triangle one row later, past the scan
    (((150 + BAND_ROWS, 151 + BAND_ROWS),), False),
], ids=["bipartite", "triangle_in_scan", "triangle_past_scan"])
def test_band_scans_a_bounded_neighborhood(edges, dense):
    g = _crown_plus(*edges)
    assert int(np.argmax(g.degrees)) == 0
    assert _is_dense(g) == dense
    r = solve(g)
    assert r.stats["layout"] == ("dense" if dense else "heap")
    assert r.coloring.assignment.tolist() == _run(_heap_pass, g)[0]


def test_band_needs_the_color_words_to_fit(monkeypatch):
    # G(2999, 0.025) and a vertex joined to all of it: max_degree + 1 =
    # 3000 colors would take 47 words a vertex, 141,000 words against
    # about 115,000 edges, so the graph keeps the heap although a triangle
    # closes at its seed vertex, the hub
    n = 3000
    hub = np.stack([np.arange(n - 1), np.full(n - 1, n - 1)], axis=1)
    g = Graph.from_edges(n, np.concatenate(
        [np.array(random_gnp(n - 1, 0.025, 1).edges()), hub]))
    assert not _words_fit(g)
    r = solve(g)
    assert r.stats["layout"] == "heap"
    monkeypatch.setattr("wfcolor.wfc._words_fit", lambda g: True)
    dense = solve(g)
    assert dense.stats["layout"] == "dense"
    assert dense.coloring.assignment.tobytes() == \
        r.coloring.assignment.tobytes()


# -- the step API --------------------------------------------------------------
# DomainState, the paper's step API over _heap_pass's state, is the traced
# benchmark driver's stepper, and RESTART is its dead-end value; solve uses
# neither, and no test outside this section reaches them

from wfcolor.wfc import RESTART, DomainState


def _state(g, m, colored=()):
    """A state with the (vertex, color) pairs set, then propagated."""
    st_ = DomainState(g, m)
    for v, c in colored:
        st_.set_color(v, c)
    for v, _ in colored:
        assert st_.propagate(v) is True
    return st_


def _scan_saturation(g, colors, v):
    return len({colors[w] for w in g.neighbors(v).tolist() if colors[w]})


def _step_to_the_end(st_):
    """Observe, collapse and propagate until every vertex is colored; what
    the state then holds: the colors, the saturation each vertex was
    colored at, and saturation(v)."""
    while st_.colored_count < st_.g.n:
        v = st_.observe()
        st_.collapse(v)
        st_.propagate(v)
    return (st_.colors.tolist(), st_.sat,
            [st_.saturation(v) for v in range(st_.g.n)])


def _step_from_the_seed(g):
    """The steps as _heap_pass runs them, from solve's seed vertex with
    degree ties and max_degree + 1 colors, which no pick exceeds: (colors,
    sat)."""
    st_ = DomainState(g, g.max_degree + 1)
    v = int(np.argmax(g.degrees))
    st_.collapse(v)
    st_.propagate(v)
    return _step_to_the_end(st_)[:2]


@given(g=_graphs())
def test_steps_make_the_heap_pass_picks(g):
    assert _step_from_the_seed(g) == _run(_heap_pass, g)[:2]


@pytest.mark.parametrize("name", sorted(_LEAFY))
def test_steps_pick_the_pendants_the_pass_colors_at_a_strike(name):
    # observe picks every vertex, each pendant included, and the steps
    # leave the pass's colors and saturations
    g = _LEAFY[name]()
    assert _step_from_the_seed(g) == _run(_heap_pass, g)[:2]


@pytest.mark.parametrize("make, per_vertex", [
    (lambda: random_gnp(3000, 0.0005, 1), 70),
    (lambda: star_graph(50_000), 100)], ids=["gnp3000_0.0005", "star50k"])
def test_steps_keep_the_heap_pass_state(make, per_vertex):
    # the steps keep _heap_pass's state, so they build no key for a vertex
    # that no strike has reached: about 57 and 80 bytes a vertex, the
    # saturations read at the end included, against 94 and 120 with a key
    # for every vertex from the start (CPython 3.11).  The first graph's 670 isolated vertices and
    # many small components send observe down the rank order again and again
    g = make()
    steps, peak = _peak(_step_from_the_seed, g)
    assert steps == _run(_heap_pass, g)[:2]
    assert peak <= per_vertex * g.n


def test_steps_keep_the_heap_compact(monkeypatch):
    _assert_compact_rebuilds(monkeypatch, _step_from_the_seed)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("dense", [False, True], ids=["heap", "dense"])
def test_solve_builds_no_domain_state(dense, tie_break, monkeypatch):
    # the step API is for the traced driver; solve's passes are module
    # functions, and solve gives the other layout's pass's coloring
    g = _dense_graph("crown200") if dense else random_gnp(400, 0.02, 3)
    assert _is_dense(g) == dense
    colors, sat, _ = _run(_heap_pass if dense else _dense_pass, g,
                             tie_break, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("solve built a DomainState")

    monkeypatch.setattr("wfcolor.wfc.DomainState", refuse)
    r = solve(g, tie_break=tie_break, seed=5)
    assert r.coloring.assignment.tolist() == colors
    assert r.stats["strikes"] == sum(sat)
    assert r.stats["stale_pops"] <= (0 if dense else sum(sat))


def test_restart_is_the_step_apis_alone():
    # the dead-end value stays in wfc; the package exports the step API
    import wfcolor
    assert "RESTART" not in wfcolor.__all__ and "DomainState" in wfcolor.__all__
    with pytest.raises(AttributeError):
        wfcolor.RESTART


def test_a_copied_state_runs_on_alone():
    # copy.deepcopy and pickle rebuild the state, and the copy shares
    # nothing with the original; run on, it ends where a fresh state does
    g = crown_graph(5)
    st_ = _state(g, g.n, [(0, 1)])
    fresh = _step_to_the_end(_state(g, g.n, [(0, 1)]))
    for twin in (copy.deepcopy(st_), pickle.loads(pickle.dumps(st_))):
        assert type(twin) is DomainState
        v = twin.observe()
        twin.collapse(v)
        twin.propagate(v)
        assert twin.colored_count == 2 and st_.colored_count == 1
        assert _step_to_the_end(twin) == fresh


@pytest.mark.parametrize("make", [
    lambda: crown_graph(3), lambda: random_gnp(100, 0.05, 1),
    lambda: random_gnp(300, 0.6, 1)], ids=["crown3", "gnp100", "gnp300"])
def test_a_byte_swapped_graph_steps_as_its_native_graph(make):
    # propagate reads the CSR through memoryviews, which refuse a
    # byte-swapped format
    g = make()
    h = Graph(g.n, g.indptr.astype(np.dtype(np.int32).newbyteorder()),
              g.indices.astype(np.dtype(np.int64).newbyteorder()))
    m = g.max_degree + 1
    assert _step_to_the_end(_state(h, m)) == _step_to_the_end(_state(g, m))


# observe.  Entropy = m - saturation: the minimum-entropy vertex is the one
# with the most distinct colors around it

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


def test_observe_agrees_with_plain_scan():
    """observe() returns exactly what a plain scan over the uncolored
    vertices would: the highest saturation, then the highest degree, then
    the lowest id, or RESTART once a saturation has reached the budget."""
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
        st_ = _state(g, n, pairs)
        assert {v: st_.saturation(v) for v in uncolored} == sat
        assert st_.observe() == expected
        st_ = _state(g, m, pairs)
        assert st_.observe() == (expected if sat[expected] < m else RESTART)


# collapse

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


# propagate

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
    with pytest.raises(ValueError, match="need at least one color"):
        DomainState(g, 0)
    # the budget is read by graph._check_int, as a seed or a count is
    for m in (True, 2.5, "3"):
        with pytest.raises(ValueError, match="color budget .* is not an integer"):
            DomainState(g, m)
    st_ = DomainState(g, np.int64(3))
    assert st_.m == 3 and type(st_.m) is int
    st_.set_color(0, 1)
    assert st_.propagate(0) is True and st_.observe() == 1
    st_ = DomainState(g, 1)
    st_.set_color(0, 1)
    assert st_.propagate(0) is True
    assert st_.saturation(1) == 1
    assert st_.observe() == RESTART


# the step API ranks ties by degree only; the ids keep naming the mode
@pytest.mark.parametrize("tie_break", ["degree"])
@pytest.mark.parametrize("g, m", [(complete_graph(3), 2), (path_graph(2), 1),
                                  (cycle_graph(5), 2)],
                         ids=["K3", "edge", "C5"])
def test_propagate_returns_true_past_the_budget(g, m, tie_break):
    # a caller that loops on a falsy propagate (retrying with one more
    # color) would spin forever; the dead end shows only at observe
    st_ = DomainState(g, m)
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


@pytest.mark.parametrize("v", [-1, 3, True, 1.0, np.int64(-1)],
                         ids=["-1", "3", "True", "1.0", "int64(-1)"])
def test_steps_reject_vertex_ids_outside_the_graph(v):
    # a negative id would otherwise index the per-vertex lists from the end,
    # and a bool or a float would pass for an int, as graph._check_vertex
    # refuses them for the graph's accessors
    g = path_graph(3)
    st_ = DomainState(g, g.n)
    st_.set_color(1, 1)
    for step, args in ((st_.set_color, (v, 1)), (st_.collapse, (v,)),
                       (st_.propagate, (v,)), (st_.saturation, (v,))):
        with pytest.raises(ValueError, match=r"outside 0\.\.2|not an integer"):
            step(*args)
    assert st_.colors.tolist() == [0, 1, 0] and st_.colored_count == 1


@pytest.mark.parametrize("color", [True, 1.0], ids=["True", "1.0"])
def test_set_color_reads_its_color_as_an_integer(color):
    # a bool or a float would pass for color 1, and a float, stored, would
    # fail the next strike's bit shift
    g = path_graph(70)
    st_ = DomainState(g, g.n)
    with pytest.raises(ValueError, match="color .* is not an integer"):
        st_.set_color(0, color)
    assert st_.colored_count == 0
    # a numpy integer passes and is kept as a Python int: an int64 bit for
    # color 65 would overflow
    st_.set_color(0, np.int64(65))
    assert st_.propagate(0) is True
    assert st_.saturation(1) == 1 and st_.collapse(1) == 1


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


# forced colorings vs. observation

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
