from itertools import product

import pytest

from util import colorable, complete_graph, cycle_graph, path_graph
from wfcolor.coloring import Coloring, validate
from wfcolor.graph import Graph, crown_graph, random_gnp
from wfcolor.oracle import ORACLE_LIMIT, OracleLimitError, exact_chromatic


def test_clique_needs_clique_size():
    k, witness = exact_chromatic(complete_graph(4))
    assert k == 4
    assert validate(complete_graph(4), witness).ok


def test_odd_cycle_needs_three():
    g = cycle_graph(5)
    # independent check: every 2-coloring has a conflict, some 3-coloring works
    assert all(not validate(g, Coloring.from_list(list(c))).ok
               for c in product([1, 2], repeat=5))
    k, witness = exact_chromatic(g)
    assert k == 3
    assert validate(g, witness).ok


def test_crown_is_two_chromatic():
    assert exact_chromatic(crown_graph(4))[0] == 2


def test_small_shapes():
    k, witness = exact_chromatic(Graph.from_edges(0, []))
    assert k == 0 and witness.n == 0
    assert exact_chromatic(path_graph(1))[0] == 1
    assert exact_chromatic(path_graph(4))[0] == 2
    assert exact_chromatic(cycle_graph(6))[0] == 2


def test_limit_enforced():
    with pytest.raises(OracleLimitError):
        exact_chromatic(random_gnp(13, 0.5, seed=0))
    assert ORACLE_LIMIT == 12
    assert exact_chromatic(random_gnp(12, 0.3, seed=0))[0] >= 1


def test_witness_and_minimality_against_bruteforce():
    """Cross-check exact_chromatic on n <= 6 against raw enumeration of all
    colorings with one fewer color."""
    for seed in range(20):
        g = random_gnp(6, [0.3, 0.6, 0.9][seed % 3], seed=seed)
        k, witness = exact_chromatic(g)
        assert validate(g, witness).ok
        assert witness.k == k
        assert not colorable(g, k - 1)
