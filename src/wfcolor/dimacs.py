"""Reading and writing the DIMACS ``.col`` text format.

Lines are: comments ``c ...``, one problem line ``p edge <n> <m>`` (``edges``
is accepted too), and edge lines ``e <u> <v>`` with 1-based vertex ids.
Internally everything is 0-based; the translation happens only here.

parse_dimacs has two paths that give the same graph.  Canonical text, what
write_dimacs writes for its ids (a ``c`` comment header allowed), with
``\n`` or CRLF line ends, is read at array speed, in blocks of about
graph.BLOCK_ROWS lines cut at line ends: the CRLFs of a block that holds
a ``\r`` become ``\n``, its ids are read by one np.fromstring call and
taken as read only when they are in range, no edge is a self-loop, and
int_lines writes them back as the block's exact text.  The ids of all
blocks go into one int32 array, and Graph.from_edges builds the CSR from
them on 32-bit keys up to 65,535 vertices.  Anything else goes through a loop over the lines of the
original text, the only source of DimacsParseError, so error kinds, line
numbers and messages do not depend on the path taken.  parse_dimacs takes
only a ``str``: load_dimacs reads a file with read_text, which drops a
leading byte-order mark.

write_dimacs, like coloring.format_coloring, writes its lines of integers
with int_lines: every 3-digit group of an id is a 4-byte cell, gathered from
one table straight into its column of the output matrix, and the NUL bytes
that pad the cells are stripped from the matrix's bytes.  write_dimacs calls
it on one Graph.edge_blocks block of about graph.BLOCK_ROWS edges at a time,
and joins the blocks once, so neither direction holds more than one block's
buffers beside the text, the parsed ids and the CSR; save_dimacs writes each
block's text to the file as it is made, so it holds one block beside the CSR.
"""
from __future__ import annotations

import warnings
from typing import Iterable, Iterator

import numpy as np

from . import graph
from .graph import MAX_VERTICES, Graph


class DimacsParseError(ValueError):
    """Parse failure with the offending line number and a machine-checkable kind."""

    def __init__(self, kind: str, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.kind = kind
        self.line_no = line_no


class DimacsWarning(UserWarning):
    """Non-fatal oddities, e.g. a declared edge count that disagrees with the
    edge lines actually present."""


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col text into a canonical Graph.

    Duplicate edge lines and both orientations of an edge collapse to one
    undirected edge.  The declared m is advisory: a mismatch with the actual
    edge count produces a DimacsWarning, not an error.

    The text is read at array speed when its head, the lines before the
    first ``e `` line, holds only comment and problem lines, and the lines
    from there on are what write_dimacs writes for their ids, with ``\n`` or
    CRLF line ends; the ids must be in range and give no self-loop.
    Everything else goes through the line loop over str.splitlines(), which
    gives the same graph and is the only source of DimacsParseError.  A
    count or id that is not an ASCII decimal integer, a sign allowed, makes
    its line malformed, and so does a problem line declaring more than
    MAX_VERTICES vertices.  Anything but a str raises TypeError: read a file
    with load_dimacs.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected str, not {type(text).__name__}: read files with load_dimacs")
    n, ends, declared_m = _parse_bulk(text) or _parse_lines(text.splitlines())
    ends -= 1  # in place: a 0-based copy would stay live through from_edges
    g = Graph.from_edges(n, ends.reshape(-1, 2))
    if g.m != declared_m:
        warnings.warn(
            f"problem line declares {declared_m} edges, file contains {g.m}",
            DimacsWarning,
            stacklevel=2,
        )
    return g


def _parse_bulk(text: str) -> tuple[int, np.ndarray, int] | None:
    """The line loop's result for canonical text, as parse_dimacs's
    docstring defines it, or None for any other text.  The lines before the
    first edge line go through the loop and must hold no edge line.  The
    lines after them are read in blocks of about graph.BLOCK_ROWS lines,
    each cut at a line end, its CRLFs turned into "\n" if it holds a
    "\r", and read by one np.fromstring call; a block's ids are kept only
    if they are in range, give no self-loop and int_lines writes them back
    as the block's text.
    The ids go into one int32 array, sized from the count of line ends,
    which the blocks must fill exactly."""
    # the body starts at the first "e " line after the first line, if any
    cut = text.find("\ne ") + 1 or len(text)
    try:
        n, head_ends, declared_m = _parse_lines(text[:cut].splitlines())
    except DimacsParseError:
        return None  # the loop over the whole text raises the right error
    if head_ends.size:  # an edge line the cut missed, such as "e\t1 2"
        return None
    if cut == len(text):  # no edge lines
        return n, head_ends, declared_m
    if not text.endswith("\n"):  # int_lines ends every line with one
        return None
    lines = text.count("\n", cut)
    ends = np.empty(2 * lines, np.int32)  # n <= MAX_VERTICES: ids fit int32
    step = max(1, (len(text) - cut) * graph.BLOCK_ROWS // lines)  # chars a block
    start = cut
    filled = 0
    # An id np.fromstring cannot read raises a ValueError, or, on older
    # numpy releases, warns and ends the array early: the loop decides then.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        while start < len(text):
            # the block ends at the first line end from start + step on
            end = text.find("\n", min(start + step, len(text)) - 1) + 1
            block = text[start:end]
            # CRLF line ends read as "\n", rewritten only in a block that
            # holds a "\r": the search for one is some 80x cheaper than the
            # replace; a stray "\r" fails the write-back
            if "\r" in block:
                block = block.replace("\r\n", "\n")
            try:
                ids = np.fromstring(block.replace("e", " "), dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning):
                return None
            # the line loop's checks, the range first, as int_lines takes
            # only ids of 1 or more; then the block must be what
            # write_dimacs writes for them
            if (ids.size == 0 or ids.size % 2 or ids.min() < 1 or ids.max() > n
                    or np.any(ids[0::2] == ids[1::2])
                    or int_lines(ids.reshape(-1, 2), lead="e ") != block):
                return None
            ends[filled:filled + ids.size] = ids  # one pair per line of the block
            filled += ids.size
            start = end
    if filled != ends.size:
        return None
    return n, ends, declared_m


def _parse_lines(lines: Iterable[str]) -> tuple[int, np.ndarray, int]:
    """The line loop: (n, flat 1-based endpoints, declared m), checking every
    line in turn and raising DimacsParseError at the first bad one."""
    n = -1
    declared_m = 0
    ends: list[int] = []  # flat 1-based endpoints, two per edge line
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if n >= 0:
                raise DimacsParseError("malformed", line_no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] not in ("edge", "edges"):
                raise DimacsParseError("malformed", line_no, f"bad problem line {raw!r}")
            try:
                n, declared_m = _int_token(tokens[2]), _int_token(tokens[3])
            except ValueError:
                raise DimacsParseError("malformed", line_no, f"bad problem line {raw!r}") from None
            if n < 0 or declared_m < 0:
                raise DimacsParseError("malformed", line_no, "negative counts in problem line")
            if n > MAX_VERTICES:
                raise DimacsParseError("malformed", line_no,
                                       f"vertex count {n} exceeds {MAX_VERTICES}")
        elif tokens[0] == "e":
            if n < 0:
                raise DimacsParseError("missing-problem-line", line_no,
                                       "edge line before problem line")
            if len(tokens) != 3:
                raise DimacsParseError("malformed", line_no, f"bad edge line {raw!r}")
            try:
                u, v = _int_token(tokens[1]), _int_token(tokens[2])
            except ValueError:
                raise DimacsParseError("malformed", line_no, f"bad edge line {raw!r}") from None
            if u < 1 or u > n or v < 1 or v > n:
                raise DimacsParseError("vertex-range", line_no,
                                       f"vertex id out of range 1..{n}")
            if u == v:
                raise DimacsParseError("self-loop", line_no, f"self-loop at vertex {u}")
            ends += (u, v)
        else:
            raise DimacsParseError("malformed", line_no, f"unrecognized line {raw!r}")
    if n < 0:
        raise DimacsParseError("missing-problem-line", 0, "no problem line found")
    return n, np.array(ends, dtype=np.int64), declared_m


def _int_token(token: str, read=int):
    """The number a token of outside text spells, or a ValueError: what
    ``read`` (int, or float for gnp's p) reads, less the two forms int_lines
    never writes, an underscore ("1_0" is 10) and a non-ASCII digit."""
    if "_" in token or not token.isascii():
        raise ValueError(f"not a decimal number: {token!r}")
    return read(token)


def _pair_records(text: str, form: str) -> Iterator[tuple[int, str, str]]:
    """(line number, first token, second token) for each record of a coloring
    or best-known file, lines numbered from 1: blank lines and ``#`` comments
    are skipped, and a line of other than two tokens is a ValueError that
    names the line and the ``form`` it should have."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {line_no}: expected '{form}', got {raw!r}")
        yield line_no, *tokens


def read_text(path) -> str:
    """A file's text, decoded as UTF-8 with bad bytes replaced and a leading
    byte-order mark dropped: the one way the package reads a DIMACS,
    coloring or best-known file."""
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        return fh.read()


def load_dimacs(path) -> Graph:
    return parse_dimacs(read_text(path))


def write_dimacs(g: Graph) -> str:
    """Emit canonical DIMACS text: problem line, then each edge once as
    ``e u v`` with u < v, 1-based.  parse_dimacs inverts this exactly.

    The problem line and the text of every block _dimacs_pieces yields are
    joined once: beside the CSR and the text, no step holds more than one
    block's endpoints."""
    return "".join(_dimacs_pieces(g))


def _dimacs_pieces(g: Graph) -> Iterator[str]:
    """write_dimacs's text in pieces: the problem line, then the edge lines
    int_lines writes for each Graph.edge_blocks block of about
    graph.BLOCK_ROWS int32 edges."""
    yield f"p edge {g.n} {g.m}\n"
    for us, ws in g.edge_blocks():
        rows = np.column_stack((us, ws))
        rows += 1
        yield int_lines(rows, lead="e ")


# The text of one 3-digit group of an id, as 4-byte cells that a
# little-endian uint32 holds in text order: _CELLS[t] for t < 1000 is t with
# its leading zeros as NULs (t = 0 is all NULs), _CELLS[1000 + t] is t with
# its zeros kept, and the fourth byte is a NUL.  _CELLS[2000 + i] and
# _CELLS[4000 + i] are _CELLS[i] with a " " or a "\n" as the fourth byte,
# for an id's last group.
_DIGITS = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
_LEADING = np.where(np.arange(1000)[:, None] >= np.array([100, 10, 1]), _DIGITS, 0)
_GROUPS = np.concatenate([_LEADING, _DIGITS])
_CELLS = np.concatenate([np.insert(_GROUPS, 3, sep, axis=1) for sep in b"\0 \n"]
                        ).astype(np.uint8).view("<u4").ravel()


def int_lines(rows: np.ndarray, lead: str = "") -> str:
    """One line per row of a 2-D array of ints in 1..10**18 - 1: ``lead``
    (at most 4 ASCII characters), then the row's ints in decimal, separated
    by single spaces, then ``\n``.  "" for no rows.

    Each id takes as many 3-digit groups as the largest one needs, and each
    group's cells are gathered from _CELLS straight into its columns of one
    uint32 matrix, whose bytes less the NULs are the text."""
    rows = np.asarray(rows, dtype=np.int64)
    m, k = rows.shape
    groups = (len(str(int(rows.max(initial=1)))) + 2) // 3
    width = 1 if lead else 0
    mat = np.empty((m, width + k * groups), "<u4")
    if lead:
        mat[:, 0] = np.frombuffer(lead.encode("ascii").ljust(4, b"\0"), "<u4")[0]
    for j in range(groups - 1):  # every group but the last
        t = rows // 1000 ** (groups - 1 - j)  # the id's first j + 1 groups
        if j:  # t < 1000 only while the id's groups before this one are all 0
            t = np.minimum(t, t % 1000 + 1000)
        np.take(_CELLS, t, out=mat[:, width + j::groups], mode="raise")
    # the last group, with a " " after each id and a "\n" after the row's
    # last; an id below 1000 is its one group's index as it is
    t = np.minimum(rows, rows % 1000 + 1000) if groups > 1 else rows
    np.take(_CELLS[2000:4000], t[:, :-1], out=mat[:, width + groups - 1:-1:groups],
            mode="raise")
    np.take(_CELLS[4000:6000], t[:, -1], out=mat[:, -1], mode="raise")
    return mat.tobytes().translate(None, b"\0").decode("ascii")


def save_dimacs(g: Graph, path) -> None:
    """Write write_dimacs(g) to a file one _dimacs_pieces piece at a time,
    so no more than one block's text is held beside the CSR."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_dimacs_pieces(g))
