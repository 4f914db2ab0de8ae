import io
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfcolor import dimacs
from wfcolor.dimacs import (DimacsParseError, DimacsWarning, int_lines,
                            load_dimacs, parse_dimacs, write_dimacs)
from wfcolor.graph import Graph, crown_graph, random_gnp

K3_TEXT = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def test_parse_triangle():
    g = parse_dimacs(K3_TEXT)
    assert g.n == 3
    assert g.m == 3
    assert g.max_degree == 2


def test_parse_dedupes_reversed_edges():
    g = parse_dimacs("p edge 2 1\ne 1 2\ne 2 1\n")
    assert g.m == 1


def test_parse_skips_comments_and_blanks():
    g = parse_dimacs("c made by hand\n\nc another\np edge 2 1\ne 1 2\n")
    assert g.m == 1


def test_vertex_out_of_range_reports_line():
    with pytest.raises(DimacsParseError) as exc:
        parse_dimacs("p edge 2 1\ne 1 3\n")
    assert exc.value.kind == "vertex-range"
    assert exc.value.line_no == 2


def test_self_loop_is_an_error():
    with pytest.raises(DimacsParseError) as exc:
        parse_dimacs("p edge 3 1\ne 3 3\n")
    assert exc.value.kind == "self-loop"
    assert exc.value.line_no == 2


def test_missing_problem_line():
    with pytest.raises(DimacsParseError) as exc:
        parse_dimacs("c nothing here\n")
    assert exc.value.kind == "missing-problem-line"
    with pytest.raises(DimacsParseError) as exc:
        parse_dimacs("e 1 2\np edge 2 1\n")
    assert exc.value.kind == "missing-problem-line"
    assert exc.value.line_no == 1


@pytest.mark.parametrize("text", [
    "p edge x 3\n",
    "p edge 3\n",
    "p vertex 3 3\n",
    "p edge 3 0\nq 1 2\n",
    "p edge 3 1\ne 1\n",
    "p edge 3 1\ne 1 two\n",
    "p edge 3 0\np edge 3 0\n",
])
def test_malformed_lines(text):
    with pytest.raises(DimacsParseError):
        parse_dimacs(text)


def test_declared_edge_count_is_advisory():
    with pytest.warns(DimacsWarning):
        g = parse_dimacs("p edge 3 5\ne 1 2\n")
    assert g.m == 1


def test_accepts_edges_keyword():
    assert parse_dimacs("p edges 2 1\ne 1 2\n").m == 1


def test_write_triangle():
    g = parse_dimacs(K3_TEXT)
    assert write_dimacs(g) == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def test_write_single_vertex():
    g = parse_dimacs("p edge 1 0\n")
    assert write_dimacs(g) == "p edge 1 0\n"


@pytest.mark.parametrize("n", range(2, 9))
def test_crown_round_trip(n):
    g = crown_graph(n)
    back = parse_dimacs(write_dimacs(g))
    assert back.n == g.n
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)


@given(n=st.integers(1, 30), p=st.sampled_from([0.1, 0.5, 0.9]),
       seed=st.integers(0, 999))
def test_round_trip_random(n, p, seed):
    g = random_gnp(n, p, seed)
    back = parse_dimacs(write_dimacs(g))
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)
    # and text -> graph -> text is the identity on canonical text
    text = write_dimacs(g)
    assert write_dimacs(parse_dimacs(text)) == text


def _outcome(text, parse=parse_dimacs):
    """What parse makes of text: the CSR bytes and the warnings, or the
    exception's type, message and, for a DimacsParseError, kind and line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = parse(text)
        except Exception as exc:  # any raise must match between the paths
            return (type(exc), str(exc), getattr(exc, "kind", None),
                    getattr(exc, "line_no", None))
    return (g.n, g.indptr.tobytes(), g.indices.tobytes(),
            [(w.category, str(w.message)) for w in caught])


def _loop_outcome(text):
    with mock.patch.object(dimacs, "_parse_bulk", return_value=None):
        return _outcome(text)


# what the bulk path must not take for its own: separators that are
# whitespace to str.split, or line breaks to str.splitlines
_SEPARATORS = ["\t", "  ", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
# ids the line loop reads differently from np.fromstring, or rejects
_TOKENS = ["+1", "-2", "01", "\u0661", "1\u0661", "0", "x", "1" * 19, "9" * 20, "2.0"]


@st.composite
def dimacs_texts(draw):
    """write_dimacs text of a small G(n, p), perhaps under a comment header,
    with up to three mutations."""
    n = draw(st.integers(1, 12))
    g = random_gnp(n, draw(st.sampled_from([0.2, 0.6])), draw(st.integers(0, 99)))
    lines = write_dimacs(g).split("\n")  # the last item is "": a final newline
    if draw(st.booleans()):
        lines[:0] = ["c generated by write_dimacs", "c"]
    big_n = draw(st.sampled_from([None, None, None, 2**63 - 1, 10**20]))
    if big_n:  # ids past int64, where the loop and np.fromstring disagree
        p_line = next(i for i, line in enumerate(lines) if line.startswith("p "))
        lines[p_line] = f"p edge {big_n} 0"
        if p_line + 2 < len(lines):
            lines[p_line + 1] = f"e 1 {draw(st.integers(2**63, 2**64))}"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        kind = draw(st.sampled_from(
            ["separator", "trailing", "token", "glue", "insert", "drop"]))
        if kind == "separator" and len(tokens) > 1:
            j = draw(st.integers(1, len(tokens) - 1))
            lines[i] = " ".join(tokens[:j]) + draw(st.sampled_from(_SEPARATORS)) \
                + " ".join(tokens[j:])
        elif kind == "trailing":
            lines[i] += draw(st.sampled_from([" ", "\t", "\r"]))
        elif kind == "token" and len(tokens) == 3:
            j = draw(st.integers(1, 2))
            tokens[j] = draw(st.sampled_from(_TOKENS + [str(n + 1), tokens[3 - j]]))
            lines[i] = " ".join(tokens)
        elif kind == "glue" and lines[i].startswith("e "):
            lines[i] = "e" + lines[i][2:]  # "e1 2"
        elif kind == "insert":
            lines.insert(i, draw(st.sampled_from(
                ["c mid-body comment", "", " ", f"p edge {n} 0", "e 1 2", "e 1 1",
                 f"e 1 {n + 1}"])))
        elif kind == "drop" and len(lines) > 1:
            del lines[i]  # perhaps the problem line
    text = "\n".join(lines)
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


@settings(max_examples=400)
@given(text=dimacs_texts())
@example(text="p edge 12 1\ne 1 1\u0662\n")  # int() reads 12; np.fromstring cannot
@example(text=f"p edge {2**63 - 1} 1\ne 1 {2**63}\n")  # np.fromstring saturates
@example(text=f"p edge {10**20} 0\ne\t1 {2**63}\ne 1 2\nx\n")  # n past int32
# one edge line after the first breaking each rule of the bulk path's check
@example(text="p edge 3 2\ne 1 2\ne\r1 3\n")  # a line break for a space
@example(text="p edge 3 2\ne 1 2\ne 1\x0b3\n")
@example(text="p edge 3 2\ne 1 2\x01e 1 3\n")  # a control byte for "\n"
@example(text="p edge 6 2\ne 1 2\n5e 1 3\n")  # a digit before the "e"
@example(text="p edge 3 2\ne 1 2\n3 1 e\n")  # no "e" first
@example(text="p edge 12 2\ne 1 2\ne  12\n")  # an empty id
@example(text="p edge 12 2\ne 1 2\ne 12 \n")
@example(text="p edge 3 2\ne 1 2\ne 0 1\n")  # an id 0
@example(text="p edge 3 2\ne 1 2\ne 1 0\n")
@example(text="p edge 12 1\ne 1 2\n12")  # no final "\n"
# text that np.fromstring reads, but int_lines does not write back
@example(text="p edge 3 1\ne 1 2 \n")  # a trailing space
@example(text="p edge 3 2\ne 1 2\ne +1 3\n")  # a sign
@example(text="p edge 4 3\ne 1 2\ne 1 3\ne 2 4")  # no final "\n" after several lines
@example(text="p edge 3 1\ne -9000 1\n")  # an id int_lines cannot write
def test_bulk_path_agrees_with_the_line_loop(text):
    assert _outcome(text) == _loop_outcome(text)


_fromstring = np.fromstring


def _warning_fromstring(string, dtype, sep):
    """np.fromstring as older numpy releases run it on an id it cannot read:
    a DeprecationWarning and the ids before that one, not a raise."""
    try:
        return _fromstring(string, dtype=dtype, sep=sep)
    except ValueError:
        warnings.warn("string or file could not be read to its end due to "
                      "unmatched data", DeprecationWarning, stacklevel=2)
    ids = itertools.takewhile(lambda t: t.isascii() and t.lstrip("+-").isdigit(),
                              string.split())
    return np.array([int(t) for t in ids], dtype)


@pytest.mark.parametrize("fromstring", [_fromstring, _warning_fromstring],
                         ids=["numpy", "warning"])
@pytest.mark.parametrize("text", [
    "p edge 3 2\ne 1 2\ne 1 x\n",
    "p edge 3 2\ne 1 2\ne 1 3.0\n",
    "p edge 12 2\ne 1 2\ne 1 1\u0662\n",
    "p edge 3 2\ne 1 2\nc a comment\ne 1 3\n",
])
def test_an_id_numpy_cannot_read_goes_to_the_loop(text, fromstring):
    filters = warnings.filters[:]
    with mock.patch.object(np, "fromstring", fromstring):
        got = _outcome(text)
    assert got == _loop_outcome(text)  # no DeprecationWarning among the caught
    assert warnings.filters == filters


@pytest.mark.parametrize("header", ["", "c FILE: gnp.col\nc\nc made by hand\n"])
@pytest.mark.parametrize("g", [random_gnp(40, 0.3, 5), crown_graph(4),
                               Graph.from_edges(3, [])])
def test_canonical_text_takes_the_bulk_path(g, header):
    loop = dimacs._parse_lines
    seen = []

    def head_only(lines):
        lines = list(lines)
        seen.extend(lines)
        return loop(lines)

    with mock.patch.object(dimacs, "_parse_lines", head_only):
        back = parse_dimacs(header + write_dimacs(g))
    assert not any(line.startswith("e") for line in seen)  # no edge line looped
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)


# line breaks to str.splitlines but not to a text file's line iterator
@pytest.mark.parametrize("sep", ["\r", "\x0b", "\x85", "\u2028"])
def test_file_objects_parse_like_their_text(sep):
    text = f"c made by hand{sep}p edge 3 2\ne 1 2{sep}e 2 3\n"
    assert _outcome(io.StringIO(text)) == _outcome(text)
    assert parse_dimacs(text).m == 2


@pytest.mark.parametrize("text", [
    "c caf\u00e9 \udcff\r\np edge 3 2\r\ne 1 2\ne 2 3\n",  # CRLF, invalid UTF-8
    "p edge 3 1\ne 1 2\ne 1 x\n",
    "p edge 3 1\ne 1 2\n",
])
@pytest.mark.parametrize("kind", ["bytes", "binary file"])
def test_bytes_parse_like_load_dimacs(kind, text, tmp_path):
    raw = text.encode("utf-8", errors="surrogateescape")
    path = tmp_path / "g.col"
    path.write_bytes(raw)
    with open(path, "rb") as fh:
        got = _outcome(raw if kind == "bytes" else fh)
    assert got == _outcome(path, load_dimacs)


@pytest.mark.parametrize("n", [2**31, 2**63 - 1, 10**20])
def test_vertex_count_past_int32_is_malformed(n):
    for text in (f"p edge {n} 0\n", f"p edge {n} 1\ne 1 2\n"):
        with pytest.raises(DimacsParseError, match="vertex count") as info:
            parse_dimacs(text)
        assert (info.value.kind, info.value.line_no) == ("malformed", 1)


def test_declared_edge_count_warning_points_at_the_caller():
    with pytest.warns(DimacsWarning) as record:
        parse_dimacs("p edge 3 5\ne 1 2\n")  # the bulk path
    assert record[0].filename == __file__


def _format_string_writer(g):
    """write_dimacs as one %-format call: the reference for int_lines."""
    ends = np.column_stack(g.edge_arrays()) + 1
    return f"p edge {g.n} {g.m}\n" + ("e %d %d\n" * g.m) % tuple(ends.ravel().tolist())


# ids on both sides of every power of ten below 2**31, and the largest int32
_BOUNDARY_IDS = sorted({i for b in (1, 10, 100, 1000, 10**4, 10**5, 10**6, 10**7, 10**8,
                                    10**9) for i in (b - 1, b, b + 1)} - {0} | {2**31 - 1})


@pytest.mark.parametrize("n", [1, 9, 10, 999, 1000, 1001, 999_999, 10**6])
def test_write_matches_the_format_string_writer(n):
    ids = np.array([i for i in _BOUNDARY_IDS if i <= n] + [n])
    pairs = np.array([(u, v) for u in ids for v in ids if u < v]).reshape(-1, 2)
    g = Graph.from_edges(n, pairs - 1)
    assert write_dimacs(g) == _format_string_writer(g)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lead", ["", "e "])
def test_int_lines_matches_str_of_each_int(k, lead):
    rng = np.random.default_rng(k)
    values = np.concatenate([_BOUNDARY_IDS, rng.integers(1, 2**31, 90), [10**18 - 1]])
    rows = values[:values.size // k * k].reshape(-1, k)
    want = "".join(lead + " ".join(map(str, row)) + "\n" for row in rows.tolist())
    assert int_lines(rows, lead) == want
    assert int_lines(rows[:0], lead) == ""


def test_parse_of_written_text_peaks_under_11_mb():
    # the round trip of dimacs_pipeline's 122k-edge text: 10.2 MiB.  A regex
    # check of the edge lines alone peaked at 25.9 MB on it, and a byte check
    # with separator and length arrays at 11.6 MiB
    g = random_gnp(700, 0.5, 408)
    tracemalloc.start()
    try:
        back = parse_dimacs(write_dimacs(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.m == g.m
    assert peak < 11 * 2**20
