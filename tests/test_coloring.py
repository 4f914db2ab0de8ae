import numpy as np
import pytest

from util import complete_graph
from wfcolor.coloring import (Coloring, format_coloring, parse_coloring,
                              validate)
from wfcolor.graph import crown_graph


def test_k_counts_distinct_colors_not_max():
    c = Coloring.from_list([1, 5, 5, 1])
    assert c.k == 2
    assert c.total


def test_partial_coloring():
    c = Coloring.from_list([1, None, 2])
    assert not c.total
    assert c.color_of(1) is None
    assert c.k == 2


def test_validate_triangle_proper():
    g = complete_graph(3)
    assert validate(g, Coloring.from_list([1, 2, 3])).ok


def test_validate_triangle_conflict():
    g = complete_graph(3)
    v = validate(g, Coloring.from_list([1, 2, 2]))
    assert not v.ok
    assert v.conflict == (1, 2)
    assert v.uncolored is None


def test_validate_reports_first_uncolored():
    g = complete_graph(3)
    v = validate(g, Coloring.from_list([1, None, None]))
    assert not v.ok
    assert v.uncolored == 1


def test_validate_crown_two_coloring():
    g = crown_graph(4)
    c = Coloring.from_list([1, 1, 1, 1, 2, 2, 2, 2])
    assert validate(g, c).ok


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


@pytest.mark.parametrize("assignment", [
    np.array([2**40, 1]),  # an int32 cast would wrap it to [0, 1]
    np.array([2**31, 1], dtype=np.uint32),
    np.array([1.7, 2.2]),  # and truncate this to [1, 2]
    np.array([True, True]),
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


def test_parse_coloring_errors():
    with pytest.raises(ValueError):
        parse_coloring("1 2 3\n", 3)
    with pytest.raises(ValueError):
        parse_coloring("9 1\n", 3)
    with pytest.raises(ValueError):
        parse_coloring("1 1\n1 2\n", 3)
    with pytest.raises(ValueError):
        parse_coloring("1 0\n", 3)
    with pytest.raises(ValueError, match="^line 2: color 2147483648 out of range"):
        parse_coloring("1 1\n2 2147483648\n", 3)
