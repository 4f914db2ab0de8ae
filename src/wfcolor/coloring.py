"""Color assignments, the colorers' SolveResult and the validator."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dimacs import _int_token, _pair_records, int_lines
from .graph import Graph, _check_vertex, _int_array, _vertex_ranges

UNCOLORED = 0  # sentinel in assignment arrays; real colors start at 1
MAX_COLOR = int(np.iinfo(np.int32).max)  # assignments are stored as int32


@dataclass(frozen=True, eq=False)
class Coloring:
    """Per-vertex color assignment.  Colors are positive ints starting at 1;
    0 marks an unassigned vertex.  Colorings compare and hash by identity.
    The assignment is read by graph._int_array, so a bool is refused."""

    assignment: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        message = f"colors must be integers in 0..{MAX_COLOR} (0 = unassigned)"
        a = _int_array(self.assignment, message)
        if a.ndim != 1:
            raise ValueError("assignment must be a flat per-vertex array")
        if a.size and (a.min() < 0 or a.max() > MAX_COLOR):
            raise ValueError(message)
        a = np.array(a, dtype=np.int32)  # a private copy: only it is frozen
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    def __reduce__(self):
        # a copy or an unpickled coloring is rebuilt frozen
        return type(self), (self.assignment,)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def k(self) -> int:
        """Number of distinct colors actually used (not the max color value)."""
        # np.unique is several times slower than a sort and an adjacent-
        # difference mask; bincount would size an array by the largest color
        a = np.sort(self.assignment[self.assignment != UNCOLORED])
        return int(np.count_nonzero(a[1:] != a[:-1])) + int(a.size > 0)

    @property
    def total(self) -> bool:
        return bool(np.all(self.assignment != UNCOLORED))

    def color_of(self, v: int) -> int | None:
        _check_vertex(v, self.n)
        c = int(self.assignment[v])
        return None if c == UNCOLORED else c

    @classmethod
    def from_list(cls, colors: list[int | None]) -> "Coloring":
        return cls([UNCOLORED if c is None else c for c in colors])


@dataclass(frozen=True)
class Verdict:
    """Outcome of validate(): either ok, or the first violation found.

    Violations are reported in canonical order: the lowest unassigned vertex
    first, otherwise the first conflicting edge in (u, v) order with u < v.
    """

    ok: bool
    uncolored: int | None = None
    conflict: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        """The line wfcolor validate prints, with 1-based ids, as the files
        number them."""
        if self.ok:
            return "VALID"
        if self.uncolored is not None:
            return f"INVALID: vertex {self.uncolored + 1} is uncolored"
        u, w = self.conflict
        return f"INVALID: edge ({u + 1}, {w + 1}) has matching colors"


VALID = Verdict(ok=True)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A coloring with its color count k, as wfc.solve and the reference
    colorers in baselines.py return it.  For the collapse solver, restarts
    is 0 or 1 and final_m = max(max_degree, 1) + restarts is the budget
    the paper's loop succeeds with; forced_colorings counts the vertices
    its cascade colors.  stats holds solve's work counters, selections
    (the paper's n - 1), strikes (one per color a saturation counts: a key
    update, or a pendant's coloring) and stale_pops (outdated heap keys
    discarded; 0 on the dense pass), and the layout that ran, "heap" or
    "dense".  Results compare and hash by identity."""

    coloring: Coloring
    k: int
    restarts: int = 0
    final_m: int | None = None
    forced_colorings: int = 0
    stats: dict[str, int | str] = field(default_factory=dict)


def format_coloring(coloring: Coloring) -> str:
    """One line per assigned vertex: ``<1-based vertex> <color>``."""
    a = coloring.assignment
    colored = np.flatnonzero(a != UNCOLORED)
    return int_lines(np.column_stack([colored + 1, a[colored]]))


def parse_coloring(text: str, n: int) -> Coloring:
    """Inverse of format_coloring for a graph on n vertices.  Vertices not
    mentioned stay unassigned (and will fail validation)."""
    assignment = np.zeros(n, dtype=np.int32)
    for line_no, v, c in _pair_records(text, "<vertex> <color>"):
        try:
            v, c = _int_token(v), _int_token(c)
        except ValueError:
            raise ValueError(f"line {line_no}: expected two integers") from None
        if not 1 <= v <= n:
            raise ValueError(f"line {line_no}: vertex {v} out of range 1..{n}")
        if not 1 <= c <= MAX_COLOR:
            raise ValueError(f"line {line_no}: color {c} out of range 1..{MAX_COLOR}")
        if assignment[v - 1] != UNCOLORED:
            raise ValueError(f"line {line_no}: vertex {v} assigned twice")
        assignment[v - 1] = c
    return Coloring(assignment)


def validate(g: Graph, coloring: Coloring) -> Verdict:
    """Check that coloring is total and no edge joins two same-colored
    vertices.  The colors are compared over every arc, both orientations
    of each edge, one graph._vertex_ranges range of about 2 *
    graph.BLOCK_ROWS arcs at a time, in CSR order, so no step holds a
    whole-graph copy of the CSR.  The first conflicting arc (u, w) in that
    order has u < w, since its reverse sits in a later row, so it is the
    lowest conflicting edge in canonical (u, w) order."""
    a = coloring.assignment
    if a.shape[0] != g.n:
        raise ValueError(f"coloring covers {a.shape[0]} vertices, graph has {g.n}")
    missing = np.nonzero(a == UNCOLORED)[0]
    if missing.size:
        return Verdict(ok=False, uncolored=int(missing[0]))
    indptr = g.indptr
    for lo, hi in _vertex_ranges(indptr):
        starts = indptr[lo:hi + 1]
        ws = g.indices[starts[0]:starts[-1]]
        # np.take gathers the int32 ids some 30% faster than a[ws] does
        bad = np.flatnonzero(np.repeat(a[lo:hi], np.diff(starts)) == a.take(ws))
        if bad.size:
            i = int(bad[0])
            u = lo + int(np.searchsorted(starts, starts[0] + i, side="right")) - 1
            return Verdict(ok=False, conflict=(u, int(ws[i])))
    return VALID
