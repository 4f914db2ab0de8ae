import io
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfcolor import dimacs, graph, solve
from wfcolor.bench import load_best_known, parse_best_known
from wfcolor.cli import main
from wfcolor.coloring import (Coloring, Verdict, format_coloring,
                              parse_coloring, validate)
from wfcolor.dimacs import (DimacsParseError, DimacsWarning, int_lines,
                            load_dimacs, parse_dimacs, read_text, save_dimacs,
                            write_dimacs)
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


@pytest.mark.parametrize("text, line_no", [
    ("p edge 20 1\ne 1_0 2\n", 2),  # int() reads 10
    ("p edge 3 1\ne \u0661 2\n", 2),  # an Arabic-Indic 1
    ("p edge 1_0 0\n", 1),
    ("p edge 3 \u0661\n", 1),
    ("p edge -1 0\n", 1),  # negative counts
    ("p edge 3 -1\n", 1),
])
def test_ids_write_dimacs_never_writes_are_malformed(text, line_no):
    with pytest.raises(DimacsParseError) as exc:
        parse_dimacs(text)
    assert (exc.value.kind, exc.value.line_no) == ("malformed", line_no)


def test_signed_ids_keep_their_meaning():
    assert parse_dimacs("p edge 3 1\ne +1 2\n").edges() == [(0, 1)]
    with pytest.raises(DimacsParseError) as exc:
        parse_dimacs("p edge 3 1\ne -1 2\n")
    assert exc.value.kind == "vertex-range"


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
_TOKENS = ["+1", "-2", "01", "\u0661", "1\u0661", "1_0", "0", "x", "1" * 19, "9" * 20,
           "2.0"]


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
@example(text="p edge 12 1\ne 1 1\u0662\n")  # a non-ASCII digit: both paths refuse it
@example(text="p edge 20 1\ne 1_0 2\n")  # int() reads 10
@example(text="p edge 3 1\ne \u0661 2\n")  # int() reads 1
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
@example(text="p edge 3 2\ne\t1 2\ne 2 3\n")  # an edge line in the head
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


@pytest.mark.parametrize("text", ["p edge 3 2\ne\t1 2\ne 2 3\n", "p edge 3 2\n e 1 2\ne 2 3\n"])
def test_an_edge_line_in_the_head_goes_to_the_loop(text):
    loop = dimacs._parse_lines
    calls = []

    def spy(lines):
        calls.append(list(lines))
        return loop(calls[-1])

    with mock.patch.object(dimacs, "_parse_lines", spy):
        got = _outcome(text)
    assert calls[-1] == text.splitlines()  # the whole text, not the head
    assert got == _loop_outcome(text)


# line breaks to str.splitlines; a file read as text turns "\r" into "\n"
# and keeps the others
@pytest.mark.parametrize("sep", ["\r", "\x0b", "\x85", "\u2028"])
def test_file_objects_parse_like_their_text(sep, tmp_path):
    """parse_dimacs refuses a file object, naming load_dimacs, and
    load_dimacs reads the file as parse_dimacs reads its text."""
    text = f"c made by hand{sep}p edge 3 2\ne 1 2{sep}e 2 3\n"
    with pytest.raises(TypeError, match="load_dimacs"):
        parse_dimacs(io.StringIO(text))
    path = tmp_path / "g.col"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(path, load_dimacs) == _outcome(text)
    assert parse_dimacs(text).m == 2


@pytest.mark.parametrize("text", [
    "c caf\u00e9 \udcff\r\np edge 3 2\r\ne 1 2\ne 2 3\n",  # CRLF, invalid UTF-8
    "p edge 3 1\ne 1 2\ne 1 x\n",
    "p edge 3 1\ne 1 2\n",
])
@pytest.mark.parametrize("kind", ["bytes", "binary file"])
def test_bytes_parse_like_load_dimacs(kind, text, tmp_path):
    """parse_dimacs refuses bytes and a binary file, naming load_dimacs,
    which reads the file as its bytes decode with bad bytes replaced."""
    raw = text.encode("utf-8", errors="surrogateescape")
    path = tmp_path / "g.col"
    path.write_bytes(raw)
    with open(path, "rb") as fh, pytest.raises(TypeError, match="load_dimacs"):
        parse_dimacs(raw if kind == "bytes" else fh)
    assert _outcome(path, load_dimacs) == _outcome(raw.decode("utf-8", errors="replace"))


@pytest.mark.parametrize("where", ["comment", "token"])
def test_every_reader_decodes_a_file_as_its_bytes(where, tmp_path, capsys):
    """DIMACS, best-known and coloring files with CRLF endings and a byte
    that is not UTF-8 (0xff) in a comment line, or inside a token, read as
    their bytes decode with bad bytes replaced: the comment is skipped, and
    the token makes the reader's line-numbered error."""
    comment, token = ("\udcff", "") if where == "comment" else ("", "\udcff")
    paths = {}
    for name, text in [("g.col", "c caf\u00e9 {c}\r\np edge 3 2\r\ne 1 2\r\ne 2 {t}3\r\n"),
                       ("best.txt", "# caf\u00e9 {c}\r\ngnp 3\r\ncrown {t}2\r\n"),
                       ("colors.txt", "# caf\u00e9 {c}\r\n1 1\r\n2 2\r\n3 {t}1\r\n")]:
        paths[name] = tmp_path / name
        paths[name].write_bytes(text.format(c=comment, t=token).encode(
            "utf-8", errors="surrogateescape"))
    decoded = {name: path.read_bytes().decode("utf-8", errors="replace")
               for name, path in paths.items()}
    clean = tmp_path / "path.col"
    clean.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    validate_argv = ["validate", "--input", str(clean), "--coloring", str(paths["colors.txt"])]
    got = _outcome(paths["g.col"], load_dimacs)
    assert got == _outcome(decoded["g.col"])
    if where == "comment":
        assert got[0] == 3 and not got[3]
        assert load_best_known(paths["best.txt"]) == parse_best_known(decoded["best.txt"]) \
            == {"gnp": 3, "crown": 2}
        assert main(validate_argv) == 0
        assert capsys.readouterr().out == "VALID\n"
    else:
        assert got[0] is DimacsParseError and got[2:] == ("malformed", 4)
        with pytest.raises(ValueError, match="line 3: bad k\\* value"):
            load_best_known(paths["best.txt"])
        assert main(validate_argv) == 2
        assert capsys.readouterr().err == "error: line 4: expected two integers\n"


def test_every_reader_drops_a_byte_order_mark(tmp_path):
    """A file that starts with a UTF-8 byte-order mark, as some Windows
    editors write, reads as the same graph, coloring and best-known table
    as its copy without one."""
    g = random_gnp(30, 0.3, 1)
    texts = {"g.col": write_dimacs(g),
             "colors.txt": format_coloring(solve(g).coloring),
             "best.txt": "gnp 3\ncrown 2\n"}
    plain, bom = {}, {}
    for name, text in texts.items():
        plain[name], bom[name] = tmp_path / name, tmp_path / f"bom-{name}"
        plain[name].write_bytes(text.encode("utf-8"))
        bom[name].write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert _outcome(bom["g.col"], load_dimacs) == \
        _outcome(plain["g.col"], load_dimacs) == _outcome(texts["g.col"])
    colors = [parse_coloring(read_text(p["colors.txt"]), g.n).assignment.tolist()
              for p in (plain, bom)]
    assert colors[0] == colors[1] == solve(g).coloring.assignment.tolist()
    assert load_best_known(bom["best.txt"]) == \
        load_best_known(plain["best.txt"]) == {"gnp": 3, "crown": 2}


# README's grammar: a text keeps its byte-order mark, which only read_text
# drops from a file; "p col" and node descriptors are not DIMACS edge format
@pytest.mark.parametrize("text, message, line_no", [
    ("\ufeffp edge 2 1\ne 1 2\n", "unrecognized line", 1),
    ("p col 3 2\ne 1 2\ne 2 3\n", "bad problem line", 1),
    ("p edge 3 0\nn 1 5\n", "unrecognized line", 2),
])
def test_lines_outside_the_grammar_are_refused(text, message, line_no):
    with pytest.raises(DimacsParseError, match=message) as exc:
        parse_dimacs(text)
    assert (exc.value.kind, exc.value.line_no) == ("malformed", line_no)
    assert _outcome(text) == _loop_outcome(text)


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
    with mock.patch.object(graph, "BLOCK_ROWS", 3):  # blocks of unequal widths
        assert write_dimacs(g) == _format_string_writer(g)


# the largest id sets how many 3-digit groups every id gets: 1, 1, 2, 3, 6;
# a 6-group case is named by its lead and k alone
@pytest.mark.parametrize("lead, k, largest", [
    pytest.param(lead, k, largest, id=f"{lead}-{k}" + (f"-{largest}" if largest < 10**17 else ""))
    for largest in (9, 999, 1000, 10**6, 10**18 - 1) for k in (1, 2, 3)
    for lead in ("", "e ", "abcd")])
def test_int_lines_matches_str_of_each_int(lead, k, largest):
    rng = np.random.default_rng(k)
    values = np.concatenate([[i for i in _BOUNDARY_IDS if i < largest],
                             rng.integers(1, largest, 90, endpoint=True), [largest]])
    rows = values[:values.size // k * k].reshape(-1, k)
    want = "".join(lead + " ".join(map(str, row)) + "\n" for row in rows.tolist())
    assert int_lines(rows, lead) == want
    assert int_lines(rows[:0], lead) == ""


def test_write_peaks_under_4_mb():
    # dimacs_pipeline's 122k-edge text, 1.13 MiB: 2.28 MiB, the blocks and
    # their join, while one block is read from the CSR at a time.  With the
    # whole edge_arrays pair live beside 32,768-edge blocks it read
    # 3.4 MiB, and written as one block, with an int64 copy of every
    # endpoint, 7.95 MiB
    g = random_gnp(700, 0.5, 408)
    tracemalloc.start()
    try:
        text = write_dimacs(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == g.m + 1
    assert peak < 2.5 * 2**20


def test_parse_of_written_text_peaks_under_6_mb():
    # the round trip of dimacs_pipeline's 122k-edge text: 3.2 MiB, in
    # Graph.from_edges, whose uint32 keys are one CSR's bytes.  With int64
    # keys it read 4.9 MiB, read as one block 9.3 MiB, and with an int64
    # copy of the int32 ids in from_edges 6.8 MiB.  A regex check of the
    # edge lines alone peaked at 25.9 MB on it
    g = random_gnp(700, 0.5, 408)
    tracemalloc.start()
    try:
        back = parse_dimacs(write_dimacs(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.m == g.m
    assert peak < 3.5 * 2**20


def test_save_writes_the_text_of_write_dimacs(tmp_path):
    g = random_gnp(60, 0.3, 2)
    path = tmp_path / "g.col"
    for rows in (graph.BLOCK_ROWS, 3):  # one block, and many
        with mock.patch.object(graph, "BLOCK_ROWS", rows):
            save_dimacs(g, path)
            assert path.read_bytes() == write_dimacs(g).encode()
    assert load_dimacs(path).indices.tobytes() == g.indices.tobytes()


def test_save_peaks_one_block_above_the_graph(tmp_path):
    # gnp(2000, 0.5): a 10.4 MiB text.  save_dimacs writes one block of
    # about 8,192 edge lines at a time: 1.8 MiB.  Writing write_dimacs's
    # text, the blocks and their join, read 20.8 MiB
    g = random_gnp(2000, 0.5, 1)
    path = tmp_path / "g.col"
    tracemalloc.start()
    try:
        save_dimacs(g, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == len(write_dimacs(g))
    assert peak < 4 * 2**20


def test_million_edge_round_trip_peaks_one_block_above_its_arrays():
    # gnp(2000, 0.5), C2000.5's size: 999,736 edges, a 10.4 MiB text and
    # 7.6 MiB of CSR indices.  write holds the blocks and their join, two
    # texts: 20.8 MiB.  parse holds the text, its int32 ids (one CSR's
    # bytes), from_edges's uint32 keys (one), of which the indices are a
    # view, and their dedupe mask (a quarter): 27.6 MiB.  A block's own
    # buffers are under 3 MiB.  With int64 keys and int32 indices made from
    # them, parse read 40.9 MiB; written and read as one block, the two read
    # 103 and 116 MiB; with the edge arrays live through the join, write
    # read 28.5 MiB, and with int64 ids parse 48.5
    g = random_gnp(2000, 0.5, 1)
    block = 3 * 2**20
    tracemalloc.start()
    try:
        text = write_dimacs(g)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = parse_dimacs(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.indices.tobytes() == g.indices.tobytes()
    assert write_peak < 2 * len(text) + block
    assert parse_peak < len(text) + 3 * g.indices.nbytes + block


# -- blocks: BLOCK_ROWS cut down to a few rows ----------------------------------

@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(graph, "BLOCK_ROWS", 3)


def test_blocks_of_different_widths_write_and_read_as_one(small_blocks):
    # K6 on ids 1..6, then a path on ids 1000..1003: 36 arcs, cut into
    # vertex ranges at the holders of arcs 0, 6, ..., 30.  Those are
    # vertices 0-4 and 999, so the six blocks are the ranges 0, 1, 2, 3,
    # 4..998 (the edge (4, 5) alone) and 999..1002, and only the last holds
    # ids of two 3-digit groups
    small = [(u, w) for u in range(6) for w in range(u + 1, 6)]
    g = Graph.from_edges(1003, small + [(999, 1000), (1000, 1001), (1001, 1002)])
    with mock.patch.object(dimacs, "int_lines", wraps=int_lines) as spy:
        text = write_dimacs(g)
    assert [len(call.args[0]) for call in spy.call_args_list] == [5, 4, 3, 2, 1, 3]
    assert text == _format_string_writer(g)
    assert text.endswith("e 1000 1001\ne 1001 1002\ne 1002 1003\n")
    with mock.patch.object(dimacs, "int_lines", wraps=int_lines) as spy:
        back = parse_dimacs(text)
    assert spy.call_count > 1  # read in blocks, on the bulk path
    assert back.indptr.tobytes() == g.indptr.tobytes()
    assert back.indices.tobytes() == g.indices.tobytes()


# each defect changes only the last line: (old, new, the loop's outcome), where
# the outcome is the graph (None) or the DimacsParseError's kind
_LAST_LINE_DEFECTS = {
    "leading zero": ("e 11 12\n", "e 011 12\n", None),
    "double space": ("e 11 12\n", "e 11  12\n", None),
    "id n + 1": ("e 11 12\n", "e 11 13\n", "vertex-range"),
    "self-loop": ("e 11 12\n", "e 11 11\n", "self-loop"),
    "no final newline": ("e 11 12\n", "e 11 12", None),
    "unreadable id": ("e 11 12\n", "e 11 x\n", "malformed"),
}


@pytest.mark.parametrize("fromstring", [_fromstring, _warning_fromstring],
                         ids=["numpy", "warning"])
@pytest.mark.parametrize("defect", _LAST_LINE_DEFECTS)
def test_a_defect_in_the_last_block_goes_to_the_loop(defect, fromstring, small_blocks):
    """Blocks before the last are read and kept; a defect in the last one
    still gives the line loop's graph, or its error, kind and line."""
    old, new, kind = _LAST_LINE_DEFECTS[defect]
    g = Graph.from_edges(12, [(u, u + 1) for u in range(11)])  # a path
    text = write_dimacs(g)
    assert text.endswith(old)
    text = text[:-len(old)] + new
    with mock.patch.object(np, "fromstring", fromstring):
        with mock.patch.object(dimacs, "int_lines", wraps=int_lines) as spy:
            assert dimacs._parse_bulk(text) is None
        got = _outcome(text)
    # the two blocks before the last, of four lines each, passed the
    # write-back; a text not ending in a line end is refused before any
    # block is read
    assert spy.call_count >= 2 or defect == "no final newline"
    assert got == _loop_outcome(text)
    if kind is None:
        assert got[1:3] == (g.indptr.tobytes(), g.indices.tobytes())
    else:
        assert got[0] is DimacsParseError and got[2:] == (kind, 12)


# line-end changes to the path text below, (old, new, whether the bulk path
# reads it); its 11 edge lines make blocks of about 3 lines, so "e 6 7" is
# in a middle block
_LINE_END_CASES = {
    "CRLF on the last line": ("e 11 12\n", "e 11 12\r\n", True),
    "CRLF only in a middle block": ("e 6 7\n", "e 6 7\r\n", True),
    "CRLF on every line": ("\n", "\r\n", True),
    # str.splitlines ends a line at a lone "\r": the loop reads two edge
    # lines, or a malformed one
    "lone CR between lines": ("e 6 7\n", "e 6 7\r", False),
    "lone CR inside a line": ("e 6 7\n", "e 6\r7\n", False),
}


@pytest.mark.parametrize("fromstring", [_fromstring, _warning_fromstring],
                         ids=["numpy", "warning"])
def test_crlf_text_takes_the_bulk_path(fromstring, small_blocks):
    """CRLF line ends, in any block, are read in blocks; a lone CR, in a
    block with no CRLF, sends the text to the loop.  Each gives the line
    loop's outcome."""
    g = Graph.from_edges(12, [(u, u + 1) for u in range(11)])  # a path
    for case, (old, new, bulk) in _LINE_END_CASES.items():
        text = write_dimacs(g).replace(old, new)
        with mock.patch.object(np, "fromstring", fromstring):
            assert (dimacs._parse_bulk(text) is not None) == bulk, case
            got = _outcome(text)
        assert got == _loop_outcome(text), case
        if bulk:
            assert got[1:] == (g.indptr.tobytes(), g.indices.tobytes(), []), case


def test_validate_in_blocks_finds_the_lowest_conflict(small_blocks):
    """validate reads the edges in blocks of a few rows, and reports the
    conflict that comes first in canonical (u, w) order, as one block does:
    a proper coloring with up to three edges made to conflict, anywhere."""
    for seed in range(30):
        g = random_gnp(30, 0.3, seed)
        colors = solve(g).coloring.assignment.copy()
        edges = g.edges()
        picks = np.random.default_rng(seed).choice(len(edges), seed % 4, replace=False)
        for u, w in (edges[i] for i in picks):
            colors[w] = colors[u]
        lowest = min(((u, w) for u, w in edges if colors[u] == colors[w]), default=None)
        coloring = Coloring(colors)
        verdict = validate(g, coloring)
        with mock.patch.object(graph, "BLOCK_ROWS", g.m):  # one block
            assert validate(g, coloring) == verdict
        assert verdict == Verdict(ok=lowest is None, conflict=lowest)


@settings(max_examples=200)
@given(text=dimacs_texts(), rows=st.integers(1, 4))
def test_bulk_path_in_small_blocks_agrees_with_the_line_loop(text, rows):
    with mock.patch.object(graph, "BLOCK_ROWS", rows):
        assert _outcome(text) == _loop_outcome(text)
