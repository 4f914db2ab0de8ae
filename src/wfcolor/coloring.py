"""Color assignments and the proper-coloring validator."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

UNCOLORED = 0  # sentinel in assignment arrays; real colors start at 1
MAX_COLOR = int(np.iinfo(np.int32).max)  # assignments are stored as int32


@dataclass(frozen=True)
class Coloring:
    """Per-vertex color assignment.  Colors are positive ints starting at 1;
    0 marks an unassigned vertex."""

    assignment: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment)
        if a.ndim != 1:
            raise ValueError("assignment must be a flat per-vertex array")
        if a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() > MAX_COLOR):
            raise ValueError(f"colors must be integers in 0..{MAX_COLOR} (0 = unassigned)")
        a = np.array(a, dtype=np.int32)  # a private copy: only it is frozen
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def k(self) -> int:
        """Number of distinct colors actually used (not the max color value)."""
        assigned = self.assignment[self.assignment != UNCOLORED]
        return int(np.unique(assigned).shape[0])

    @property
    def total(self) -> bool:
        return bool(np.all(self.assignment != UNCOLORED))

    def color_of(self, v: int) -> int | None:
        c = int(self.assignment[v])
        return None if c == UNCOLORED else c

    @classmethod
    def from_list(cls, colors: list[int | None]) -> "Coloring":
        # numpy reads a bool mixed with ints as 0 or 1: reject it by type
        if any(isinstance(c, (bool, np.bool_)) for c in colors):
            raise ValueError("colors must be integers or None, not bools")
        return cls(np.array([UNCOLORED if c is None else c for c in colors]))


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


VALID = Verdict(ok=True)


def format_coloring(coloring: Coloring) -> str:
    """One line per assigned vertex: ``<1-based vertex> <color>``."""
    lines = []
    for v in range(coloring.n):
        c = coloring.assignment[v]
        if c != UNCOLORED:
            lines.append(f"{v + 1} {c}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_coloring(text: str, n: int) -> Coloring:
    """Inverse of format_coloring for a graph on n vertices.  Vertices not
    mentioned stay unassigned (and will fail validation)."""
    assignment = np.zeros(n, dtype=np.int32)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {line_no}: expected '<vertex> <color>'")
        try:
            v, c = int(tokens[0]), int(tokens[1])
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
    """Check that coloring is total and no edge joins two same-colored vertices."""
    a = coloring.assignment
    if a.shape[0] != g.n:
        raise ValueError(f"coloring covers {a.shape[0]} vertices, graph has {g.n}")
    missing = np.nonzero(a == UNCOLORED)[0]
    if missing.size:
        return Verdict(ok=False, uncolored=int(missing[0]))
    us, ws = g.edge_arrays()  # each edge once, in canonical (u, w) order
    bad = np.nonzero(a[us] == a[ws])[0]
    if bad.size:
        i = int(bad[0])
        return Verdict(ok=False, conflict=(int(us[i]), int(ws[i])))
    return VALID
