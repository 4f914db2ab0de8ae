"""Reading and writing the DIMACS ``.col`` text format.

Lines are: comments ``c ...``, one problem line ``p edge <n> <m>`` (``edges``
is accepted too), and edge lines ``e <u> <v>`` with 1-based vertex ids.
Internally everything is 0-based; the translation happens only here.
"""
from __future__ import annotations

import warnings
from typing import IO, Iterable

import numpy as np

from .graph import Graph


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
    """
    lines: Iterable[str] = text.splitlines() if isinstance(text, str) else text
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
    g = Graph.from_edges(n, np.array(ends, dtype=np.int64).reshape(-1, 2) - 1)
    if g.m != declared_m:
        warnings.warn(
            f"problem line declares {declared_m} edges, file contains {g.m}",
            DimacsWarning,
            stacklevel=2,
        )
    return g


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
