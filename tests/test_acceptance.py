"""Acceptance suite: one test per release criterion, each at its stated
tolerance.  Criteria needing the standard DIMACS instances skip cleanly
unless WFCOLOR_DIMACS points at a directory of .col files."""
import os
from math import factorial
from pathlib import Path

import numpy as np
import pytest

from util import complete_graph
from wfcolor.baselines import dsatur, iterated_greedy, rlf
from wfcolor.bench import RunConfig, render_csv, run_bench
from wfcolor.coloring import validate
from wfcolor.dimacs import load_dimacs
from wfcolor.exact import exact_chromatic
from wfcolor.graph import crown_graph, random_gnp
from wfcolor.oracle import best_greedy_ordering_k, paper_wfc
from wfcolor.wfc import solve


def _passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def _dimacs_dir() -> Path | None:
    root = os.environ.get("WFCOLOR_DIMACS", "instances")
    path = Path(root)
    return path if path.is_dir() else None


def _dimacs_path(name: str) -> Path | None:
    d = _dimacs_dir()
    path = d / f"{name}.col" if d is not None else None
    return path if path is not None and path.is_file() else None


def _dimacs_instance(name: str):
    path = _dimacs_path(name)
    return load_dimacs(path) if path is not None else None


def test_validity_suite():
    """500 seeded random graphs plus the crown family: every algorithm
    returns a proper coloring, and the collapse solver stays within its
    restart/budget bounds on every single run."""
    rng = np.random.default_rng(2024)
    graphs = [random_gnp(int(rng.integers(2, 61)), [0.1, 0.3, 0.5, 0.8][i % 4],
                         seed=i) for i in range(500)]
    graphs += [crown_graph(n) for n in range(2, 11)]
    for i, g in enumerate(graphs):
        results = {
            "wfcc": solve(g, seed=i),
            "ig": iterated_greedy(g),
            "dsatur": dsatur(g),
            "rlf": rlf(g, seed=i),
        }
        for alg, r in results.items():
            assert validate(g, r.coloring).ok, f"{alg} invalid on graph {i}"
        w = results["wfcc"]
        assert w.restarts <= 1
        assert w.final_m == max(g.max_degree, 1) + w.restarts
    _passed("validity-suite")


def test_crown_family_claim():
    """The collapse solver 2-colors every crown graph; first-fit greedy in
    the interleaved order uses n colors on the same graphs."""
    for n in range(2, 11):
        g = crown_graph(n)
        assert solve(g).k == 2, f"crown_{n}"
        interleaved = [v for i in range(n) for v in (i, n + i)]
        assert iterated_greedy(g, interleaved).k == n, f"crown_{n} greedy"
    _passed("crown-family")


def test_oracle_dominance_and_tightness():
    """On 200 small random graphs no algorithm beats the exact chromatic
    number, and exhaustive greedy-over-orderings meets it exactly wherever
    full enumeration is feasible."""
    rng = np.random.default_rng(7)
    for i in range(200):
        n = int(rng.integers(4, 10))
        g = random_gnp(n, [0.2, 0.5, 0.8][i % 3], seed=3000 + i)
        chi = exact_chromatic(g)[0]
        assert solve(g, seed=i).k >= chi
        assert iterated_greedy(g).k >= chi
        assert dsatur(g).k >= chi
        assert rlf(g, seed=i).k >= chi
        if factorial(n) <= factorial(8):
            assert best_greedy_ordering_k(g) == chi
    _passed("oracle-dominance")


def test_propagation_equivalence():
    """The one-pass solver == the paper's loop on 500 random graphs: the
    reference recomputes every domain at each step, cascades forced colors
    and restarts with one more color after a dead end.  Same coloring,
    restarts, final budget and forced-coloring count."""
    rng = np.random.default_rng(99)
    restarts = forced = 0
    for i in range(500):
        n = int(rng.integers(2, 13))
        g = random_gnp(n, [0.2, 0.5, 0.8][i % 3], seed=5000 + i)
        r = solve(g)
        ref = paper_wfc(g)
        assert (r.coloring.assignment.tolist(), r.restarts, r.final_m,
                r.forced_colorings) == (ref[0].tolist(), *ref[1:]), \
            f"solve and the paper's loop differ on graph {i}"
        restarts += r.restarts
        forced += r.forced_colorings
    # the check covers both derived fields, not only their zero values
    assert restarts > 0 and forced > 0
    _passed("propagation-equivalence")


DESK_EXPECTATIONS = {
    # instance: (wfcc_k, dsatur_k, ig_k)
    "dsjc250.5": (37, 41, 43),
    "le450_15c": (24, 27, 35),
    "le450_25c": (29, 31, 42),
    "flat300_28_0": (42, 46, 48),
    "dsjc500.1": (16, 19, 21),
}
WFCC_TOL, DSATUR_TOL, IG_TOL = 4, 3, 4


def test_desk_scale_dimacs_reproduction():
    """Color counts on five standard instances stay within the published
    windows (tie-break differences across implementations allowed).

    The reference DSatur column was produced with the colored-neighbor-count
    saturation rule, so that comparison runs with saturation="count"; the
    default distinct-color rule colors these instances several k better and
    would land below its window.
    """
    if _dimacs_dir() is None:
        pytest.skip("set WFCOLOR_DIMACS to a directory of DIMACS .col files")
    missing = [n for n in DESK_EXPECTATIONS if _dimacs_instance(n) is None]
    if missing:
        pytest.skip(f"missing instance files: {', '.join(missing)}")
    for name, (wf_k, ds_k, ig_k) in DESK_EXPECTATIONS.items():
        g = _dimacs_instance(name)
        got_wf = solve(g).k
        got_ds = dsatur(g, saturation="count").k
        got_ig = iterated_greedy(g).k
        print(f"{name}: wfcc {got_wf} (ref {wf_k}), dsatur {got_ds} (ref {ds_k}), "
              f"ig {got_ig} (ref {ig_k})")
        assert abs(got_wf - wf_k) <= WFCC_TOL, f"{name}: wfcc {got_wf} vs {wf_k}"
        assert abs(got_ds - ds_k) <= DSATUR_TOL, f"{name}: dsatur {got_ds} vs {ds_k}"
        assert abs(got_ig - ig_k) <= IG_TOL, f"{name}: ig {got_ig} vs {ig_k}"
    _passed("desk-scale-dimacs")


def test_relative_speed():
    """Mean collapse-solver time beats DSatur and RLF on a 250-vertex
    half-density instance over 100 repetitions, timed by the bench harness
    (one warm-up per algorithm, every output validated).  Absolute times are
    hardware noise; only the ordering is asserted.  Ratios print for
    reference."""
    path = _dimacs_path("dsjc250.5")
    source = ({"instances": (str(path),)} if path is not None
              else {"generators": ("gnp:250,0.5",)})
    rows = run_bench(RunConfig(algorithms=("wfcc", "dsatur", "rlf"),
                               reps=100, seed=0, **source))
    means = {r.algorithm: r.time_mean_us for r in rows}
    print("mean us:", {k: round(v, 1) for k, v in means.items()},
          "dsatur/wfcc = %.1fx" % (means["dsatur"] / means["wfcc"]),
          "rlf/wfcc = %.1fx" % (means["rlf"] / means["wfcc"]))
    assert means["wfcc"] < means["dsatur"]
    assert means["wfcc"] < means["rlf"]
    _passed("relative-speed")


def test_termination_and_clique_bound():
    """Restart loop bounds hold on random graphs, and K_n takes exactly n
    colors for n in 2..8."""
    rng = np.random.default_rng(55)
    for i in range(80):
        n = int(rng.integers(2, 50))
        g = random_gnp(n, [0.1, 0.5, 0.9][i % 3], seed=8000 + i)
        r = solve(g)
        assert r.restarts <= 1
        assert r.final_m == max(g.max_degree, 1) + r.restarts
    for n in range(2, 9):
        assert solve(complete_graph(n)).k == n
    _passed("termination-and-bound")


def test_deterministic_bench_columns():
    """Identical RunConfig (same seed) twice: the k and restarts CSV columns
    are byte-identical."""
    cfg = RunConfig(algorithms=("wfcc", "ig", "dsatur", "rlf"),
                    generators=("crown:6", "gnp:40,0.5"), reps=3, seed=13)

    def k_restart_columns(text: str) -> list[tuple[str, str]]:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return [(r[2], r[8]) for r in rows]

    a = render_csv(run_bench(cfg))
    b = render_csv(run_bench(cfg))
    assert k_restart_columns(a) == k_restart_columns(b)
    _passed("deterministic-bench")
