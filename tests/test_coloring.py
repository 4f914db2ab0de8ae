import copy
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from util import complete_graph
from wfcolor import graph
from wfcolor.coloring import (MAX_COLOR, UNCOLORED, Coloring, Verdict, format_coloring,
                              parse_coloring, validate)
from wfcolor.graph import crown_graph, random_gnp
from wfcolor.wfc import solve


def test_k_counts_distinct_colors_not_max():
    c = Coloring.from_list([1, 5, 5, 1])
    assert c.k == 2
    assert c.total


@given(colors=st.lists(st.one_of(st.just(UNCOLORED), st.just(MAX_COLOR),
                                 st.integers(1, 6), st.integers(1, MAX_COLOR)),
                       max_size=40))
@example(colors=[])
@example(colors=[UNCOLORED, MAX_COLOR, UNCOLORED, MAX_COLOR, 1])
def test_k_counts_as_a_set_does(colors):
    # zeros are unassigned, and the largest int32 color is one color
    assert Coloring(np.array(colors, dtype=np.int64)).k == \
        len(set(colors) - {UNCOLORED})


def test_partial_coloring():
    c = Coloring.from_list([1, None, 2])
    assert c.n == 3
    assert not c.total
    assert c.color_of(1) is None
    assert c.k == 2


@pytest.mark.parametrize("v", [-1, 3, True, 1.0])
def test_color_of_refuses_ids_outside_the_coloring(v):
    # -1 would read the last vertex's color
    c = Coloring.from_list([1, None, 2])
    with pytest.raises(ValueError, match=r"outside 0\.\.2|not an integer"):
        c.color_of(v)
    assert c.color_of(np.int64(2)) == 2


def test_validate_triangle_proper():
    g = complete_graph(3)
    v = validate(g, Coloring.from_list([1, 2, 3]))
    assert v.ok and v


def test_validate_triangle_conflict():
    g = complete_graph(3)
    v = validate(g, Coloring.from_list([1, 2, 2]))
    assert not v.ok and not v
    assert v.conflict == (1, 2)
    assert v.uncolored is None


def test_validate_reports_first_uncolored():
    g = complete_graph(3)
    v = validate(g, Coloring.from_list([1, None, None]))
    assert not v.ok
    assert v.uncolored == 1


def test_validate_k6_in_one_color_reports_the_first_edge():
    assert validate(complete_graph(6), Coloring([1] * 6)) == Verdict(ok=False, conflict=(0, 1))


def test_validate_reports_an_uncolored_vertex_before_conflicts():
    # vertices 0-3 and 5 share a color; vertex 4 is uncolored
    v = validate(complete_graph(6), Coloring.from_list([1, 1, 1, 1, None, 1]))
    assert v == Verdict(ok=False, uncolored=4)


def _validate_by_edges(g, coloring):
    """validate as a walk over g.edges() in canonical order: the reference."""
    a = coloring.assignment.tolist()
    if UNCOLORED in a:
        return Verdict(ok=False, uncolored=a.index(UNCOLORED))
    for u, w in g.edges():
        if a[u] == a[w]:
            return Verdict(ok=False, conflict=(u, w))
    return Verdict(ok=True)


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_validate_matches_the_edge_walk(rows):
    """Colors 1-3 on random graphs, mostly improper: validate compares them
    arc by arc over vertex ranges, the default ones or ranges of a few arcs,
    and reports what the walk over the edges reports."""
    rng = np.random.default_rng(7)
    for seed in range(50):
        n = int(rng.integers(1, 40))
        g = random_gnp(n, float(rng.choice([0.05, 0.2, 0.5])), seed)
        coloring = Coloring(rng.integers(1, 4, n))
        with mock.patch.object(graph, "BLOCK_ROWS", rows or graph.BLOCK_ROWS):
            assert validate(g, coloring) == _validate_by_edges(g, coloring)


def test_validate_crown_two_coloring():
    g = crown_graph(4)
    c = Coloring.from_list([1, 1, 1, 1, 2, 2, 2, 2])
    assert validate(g, c).ok


def test_validate_peaks_one_block_above_the_graph():
    # gnp(2000, 0.5), C2000.5's size: 999,736 edges, 7.6 MiB of CSR indices.
    # validate reads one block of about 8,192 edges at a time: 0.4 MiB.
    # Through edge_arrays, int32 sources and a mask for all 2m arcs, it read
    # 17.2 MiB
    g = random_gnp(2000, 0.5, 1)
    coloring = solve(g).coloring
    tracemalloc.start()
    try:
        verdict = validate(g, coloring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.ok
    assert peak < 1.4 * 2**20


def test_validate_checks_length():
    with pytest.raises(ValueError):
        validate(complete_graph(3), Coloring.from_list([1, 2]))


def test_classification_ignores_violation_choice():
    # different-looking invalid colorings are all just "not ok"
    g = complete_graph(4)
    for bad in ([1, 1, 2, 3], [1, 2, 1, 3], [1, 2, 3, None]):
        assert not validate(g, Coloring.from_list(bad)).ok


def test_coloring_rejects_negative():
    with pytest.raises(ValueError):
        Coloring(np.array([-1, 2], dtype=np.int32))


def test_coloring_rejects_a_matrix():
    with pytest.raises(ValueError, match="must be a flat per-vertex array"):
        Coloring(np.zeros((2, 2), np.int32))


@pytest.mark.parametrize("assignment", [
    np.array([2**40, 1]),  # an int32 cast would wrap it to [0, 1]
    np.array([2**31, 1], dtype=np.uint32),
    np.array([1.7, 2.2]),  # and truncate this to [1, 2]
    np.array([True, True]),
    # numpy would read a bool among ints as 0 or 1: [1, 2], [2, 0, 0], [1, 1]
    [True, 2],
    [2, np.False_, 0],
    (1, True),
    [[1], [2, 3]],  # ragged: numpy cannot make an array of it
])
def test_coloring_rejects_non_int32_colors(assignment):
    with pytest.raises(ValueError, match="colors must"):
        Coloring(assignment)


@pytest.mark.parametrize("colors", [[True, 2], [2, np.False_, None]])
def test_from_list_rejects_bools_among_ints(colors):
    # numpy would read these as the integer colors [1, 2] and [2, 0, 0]
    with pytest.raises(ValueError, match="colors must"):
        Coloring.from_list(colors)


def test_coloring_leaves_the_callers_array_writable():
    a = np.zeros(3, dtype=np.int32)
    c = Coloring(a)
    a[0] = 1  # raised "assignment destination is read-only" before
    assert c.assignment.tolist() == [0, 0, 0]
    assert not c.assignment.flags.writeable


def test_coloring_copies_stay_frozen():
    c = solve(crown_graph(3)).coloring
    for d in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert d.assignment.tolist() == c.assignment.tolist()
        with pytest.raises(ValueError):
            d.assignment[0] = 0


def test_coloring_takes_the_int32_range():
    c = Coloring(np.array([2**31 - 1, 1], dtype=np.int64))
    assert c.assignment.dtype == np.int32
    assert c.assignment.tolist() == [2**31 - 1, 1]


def test_coloring_file_round_trip():
    c = Coloring.from_list([2, 1, 3])
    text = format_coloring(c)
    assert text == "1 2\n2 1\n3 3\n"
    back = parse_coloring(text, 3)
    assert np.array_equal(back.assignment, c.assignment)


def _f_string_format(coloring):
    """format_coloring as a loop over the vertices: the reference."""
    lines = [f"{v + 1} {c}" for v, c in enumerate(coloring.assignment.tolist()) if c]
    return "\n".join(lines) + ("\n" if lines else "")


@pytest.mark.parametrize("n", [1, 9, 10, 999, 1000, 1001, 999_999, 10**6])
def test_format_coloring_matches_the_f_string_format(n):
    rng = np.random.default_rng(n)
    a = rng.choice([UNCOLORED, 1, 9, 10, 999, 1000, 1001, 10**6, MAX_COLOR], n)
    a[-1] = MAX_COLOR
    for b in (a, np.where(a == UNCOLORED, 1, a), np.zeros(n, dtype=np.int32)):
        c = Coloring(b)  # partial, total, then all uncolored
        assert format_coloring(c) == _f_string_format(c)


def test_parse_coloring_errors():
    with pytest.raises(ValueError, match="^line 2: expected '<vertex> <color>', got '1 2 3'$"):
        parse_coloring("# x\n1 2 3\n", 3)
    with pytest.raises(ValueError):
        parse_coloring("9 1\n", 3)
    with pytest.raises(ValueError):
        parse_coloring("1 1\n1 2\n", 3)
    with pytest.raises(ValueError):
        parse_coloring("1 0\n", 3)
    with pytest.raises(ValueError, match="^line 2: color 2147483648 out of range"):
        parse_coloring("1 1\n2 2147483648\n", 3)
    # int() reads these as 10 and 1; the ids are decimal ASCII, a sign allowed
    for text in ("1_0 1\n", "\u0661 1\n", "1 1_0\n"):
        with pytest.raises(ValueError, match="^line 1: expected two integers"):
            parse_coloring(text, 12)
    assert parse_coloring("+2 1\n", 3).assignment.tolist() == [0, 1, 0]
    # blank and comment lines are skipped
    assert parse_coloring("\n# a comment\n2 1\n", 3).assignment.tolist() == [0, 1, 0]
