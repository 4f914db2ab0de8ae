"""Reading and writing the DIMACS ``.col`` text format.

Lines are: comments ``c ...``, one problem line ``p edge <n> <m>`` (``edges``
is accepted too), and edge lines ``e <u> <v>`` with 1-based vertex ids.
Internally everything is 0-based; the translation happens only here.

parse_dimacs has two paths that give the same graph.  Canonical text, as
write_dimacs emits it (a ``c`` comment header allowed), is read at array
speed: past the problem line, every line must be exactly ``e <u> <v>`` and
``\n``-terminated, with in-range, distinct ids written as ASCII digits with
no sign and no leading zero.  Anything else goes through a loop over the
lines, the only source of DimacsParseError, so error kinds, line numbers and
messages do not depend on the path taken.  A file object is read into one
``str`` first, so it takes the same paths and splits into the same lines.
"""
from __future__ import annotations

import re
import warnings
from typing import IO, Iterable

import numpy as np

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


def parse_dimacs(text: str | IO[str]) -> Graph:
    """Parse DIMACS .col text into a canonical Graph.

    Duplicate edge lines and both orientations of an edge collapse to one
    undirected edge.  The declared m is advisory: a mismatch with the actual
    edge count produces a DimacsWarning, not an error.

    The text, or a file object's whole contents, is read at array speed
    when every line from its first ``e `` line on is exactly
    ``e <u> <v>\n``, with in-range, distinct ids of 1 to 18 ASCII digits
    and no leading zero, as write_dimacs emits.  Everything else goes
    through the line loop over str.splitlines(), which gives the same graph
    and is the only source of DimacsParseError.  A problem line declaring
    more than MAX_VERTICES vertices is malformed.
    """
    if not isinstance(text, str):
        text = text.read()
    n, ends, declared_m = _parse_bulk(text) or _parse_lines(text.splitlines())
    g = Graph.from_edges(n, ends.reshape(-1, 2) - 1)
    if g.m != declared_m:
        warnings.warn(
            f"problem line declares {declared_m} edges, file contains {g.m}",
            DimacsWarning,
            stacklevel=2,
        )
    return g


# [0-9], not \d: \d also matches non-ASCII digits, which int() reads but
# np.fromstring does not.  The 18-digit cap keeps every id below 2**63, where
# np.fromstring would saturate an overflowing token without a warning.
_EDGE_LINES = re.compile(r"(?:e [1-9][0-9]{0,17} [1-9][0-9]{0,17}\n)*")


def _parse_bulk(text: str) -> tuple[int, np.ndarray, int] | None:
    """The line loop's result for text of the strict form in parse_dimacs's
    docstring, or None for any other text.  The lines before the first edge
    line go through the loop; the edge lines after them are one regex match
    and one np.fromstring call."""
    # the body starts at the first "e " line after the first line, if any
    cut = text.find("\ne ") + 1 or len(text)
    head, body = text[:cut], text[cut:]
    try:
        n, head_ends, declared_m = _parse_lines(head.splitlines())
    except DimacsParseError:
        return None  # the loop over the whole text raises the right error
    # only "e", ASCII digits, " " and "\n" get past the regex, so the body's
    # lines are exactly the ones str.splitlines would give the loop
    if not _EDGE_LINES.fullmatch(body):
        return None
    if not body:  # np.fromstring reads a blank string as [0]
        return n, head_ends, declared_m
    ends = np.fromstring(body.replace("e", " "), dtype=np.int64, sep=" ")
    if int(ends.max()) > n or np.any(ends[0::2] == ends[1::2]):
        return None
    return n, np.concatenate([head_ends, ends]), declared_m


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
                n, declared_m = int(tokens[2]), int(tokens[3])
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
                u, v = int(tokens[1]), int(tokens[2])
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


def load_dimacs(path) -> Graph:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return parse_dimacs(fh.read())


def write_dimacs(g: Graph) -> str:
    """Emit canonical DIMACS text: problem line, then each edge once as
    ``e u v`` with u < v, 1-based.  parse_dimacs inverts this exactly."""
    ends = np.column_stack(g.edge_arrays()) + 1
    # one %-format call for all edge lines: faster than a string per edge
    return f"p edge {g.n} {g.m}\n" + ("e %d %d\n" * g.m) % tuple(ends.ravel().tolist())


def save_dimacs(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_dimacs(g))
