"""Wave-function-collapse coloring: domain bookkeeping plus the
observe / collapse / propagate loop with restart-on-failure.

The solver keeps, for every uncolored vertex, the set of colors still open
to it (its domain) and the domain's size (its entropy).  Each iteration
picks an uncolored vertex of minimum entropy, fixes it to its smallest
available color, and strikes that color from neighboring domains, cascading
depth-first whenever a domain shrinks to a single color.  The budget
starts at max(max_degree, 1) colors; if a domain empties or a forced color
clashes, the attempt is abandoned and rerun once with one more color.

There is at most one restart, because max_degree + 1 colors cannot fail: a
vertex loses at most one color per neighbor, so no domain empties, and a
domain shrinks to one color only after every neighbor has struck a distinct
color, so it cannot clash.  This holds in every tie-break mode.

Propagation has one rule: every uncolored domain is exactly {1..m} minus
the colors of its colored neighbors, which is why the default tie-break
reproduces DSatur's coloring (entropy = m - saturation).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .coloring import Coloring
from .graph import Graph

RESTART = _k.RESTART

TIE_BREAKS = ("degree", "random")


@dataclass(frozen=True)
class SolveConfig:
    """Solver knobs.

    tie_break: how observe() breaks minimum-entropy ties - "degree" (highest
      degree, then lowest id) or "random" (seeded uniform pick).
    seed: drives all randomized tie-breaking; fixed seed means identical runs.
    """

    tie_break: str = "degree"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}")


@dataclass(frozen=True)
class SolveResult:
    """A coloring with its color count k.  For the collapse solver,
    restarts is 0 or 1 (at most one restart, because max_degree + 1 colors
    cannot fail) and final_m = max(max_degree, 1) + restarts is the budget
    of the attempt that succeeded."""

    coloring: Coloring
    k: int
    restarts: int = 0
    final_m: int | None = None
    forced_colorings: int = 0


class DomainState:
    """Working state of one solve attempt at a fixed color budget m.

    Wraps the kernel arrays; see _kernels for their layout.  A state is
    owned by a single run and never shared.
    """

    def __init__(self, g: Graph, m: int, seed: int = 0):
        if m < 1:
            raise ValueError("need at least one color")
        n = g.n
        self.g = g
        self.m = m
        self.degrees = g.degrees
        self.avail = np.ones((n, m), dtype=np.uint8)
        self.entropy = np.full(n, m, dtype=np.int32)
        self.colors = np.zeros(n, dtype=np.int32)
        self.meta = np.zeros(2, dtype=np.int64)
        self.stack = np.empty(max(n, 1), dtype=np.int32)
        self.rng_state = _k.seeded_rng_state(seed)

    @classmethod
    def from_domains(cls, g: Graph, m: int,
                     domains: dict[int, set[int]],
                     colors: dict[int, int] | None = None,
                     seed: int = 0) -> "DomainState":
        """Test helper: build a state with explicit per-vertex domains for
        uncolored vertices and explicit colors for the rest."""
        st = cls(g, m, seed=seed)
        colors = colors or {}
        for v, c in colors.items():
            if not 1 <= c <= m:
                raise ValueError(f"color {c} outside 1..{m}")
            st.colors[v] = c
        st.meta[_k._COLORED] = len(colors)
        for v in range(g.n):
            if st.colors[v] != 0:
                st.entropy[v] = 0
                st.avail[v, :] = 0
                continue
            dom = domains.get(v, set(range(1, m + 1)))
            if not all(1 <= c <= m for c in dom):
                raise ValueError(f"domain of {v} outside 1..{m}")
            st.avail[v, :] = 0
            for c in dom:
                st.avail[v, c - 1] = 1
            st.entropy[v] = len(dom)
        return st

    # -- counters ---------------------------------------------------------

    @property
    def colored_count(self) -> int:
        return int(self.meta[_k._COLORED])

    @property
    def forced_count(self) -> int:
        return int(self.meta[_k._FORCED])

    def uncolored(self) -> list[int]:
        return np.nonzero(self.colors == 0)[0].tolist()

    def domain(self, v: int) -> set[int]:
        if self.colors[v] != 0:
            raise ValueError(f"vertex {v} is colored")
        return {c + 1 for c in np.nonzero(self.avail[v])[0]}

    def domains(self) -> list[set[int] | None]:
        """Per-vertex domain sets; None for colored vertices."""
        return [None if self.colors[v] != 0 else self.domain(v)
                for v in range(self.g.n)]

    def color_of(self, v: int) -> int | None:
        c = int(self.colors[v])
        return None if c == 0 else c

    # -- operations -------------------------------------------------------

    def set_color(self, v: int, color: int) -> None:
        """Directly assign a color (the seeding step).  No propagation."""
        if self.colors[v] != 0:
            raise ValueError(f"vertex {v} already colored")
        if not 1 <= color <= self.m:
            raise ValueError(f"color {color} outside 1..{self.m}")
        self.colors[v] = color
        self.meta[_k._COLORED] += 1

    def observe(self, tie_break: str = "degree") -> int:
        """Uncolored vertex of minimum entropy under the tie-break, or
        RESTART if that minimum is 0 (some domain has emptied)."""
        if self.colored_count >= self.g.n:
            raise ValueError("observe() called with no uncolored vertices")
        return int(_k.observe(self.entropy, self.colors, self.degrees,
                              tie_break == "random", self.rng_state))

    def collapse(self, v: int) -> int:
        """Assign v the smallest color in its domain and return it."""
        if self.colors[v] != 0:
            raise ValueError(f"vertex {v} already colored")
        c = _k.collapse(self.avail, self.colors, self.meta, v)
        if c == 0:
            raise ValueError(f"vertex {v} has an empty domain")
        return c

    def propagate(self, v: int) -> bool:
        """Cascade the domain restriction from colored vertex v.  True on
        success, False when the attempt must restart; the state is then
        left mid-cascade and must be discarded."""
        if self.colors[v] == 0:
            raise ValueError(f"vertex {v} is not colored")
        return bool(_k.propagate(self.g.indptr, self.g.indices,
                                 self.avail, self.entropy, self.colors,
                                 self.meta, self.stack, v))


def solve(g: Graph, config: SolveConfig | None = None) -> SolveResult:
    """Color g with a budget of max(max_degree, 1) colors, or one more.

    Each attempt seeds the lowest-id maximum-degree vertex with color 1,
    propagates, then loops observe/collapse/propagate.  A dead end restarts
    from scratch with one extra color.  That happens at most once, because
    max_degree + 1 colors cannot fail (see the module docstring).
    """
    cfg = config or SolveConfig()
    if g.n < 1:
        raise ValueError("cannot color the empty graph")
    m0 = max(g.max_degree, 1)
    for m in (m0, m0 + 1):
        st = DomainState(g, m, seed=cfg.seed)
        if _k.wfc_attempt(g.indptr, g.indices, st.degrees, st.avail,
                          st.entropy, st.colors, st.meta, st.stack,
                          cfg.tie_break == "random", st.rng_state):
            coloring = Coloring(st.colors.copy())
            return SolveResult(coloring=coloring, k=coloring.k,
                               restarts=m - m0, final_m=m,
                               forced_colorings=st.forced_count)
    raise AssertionError(
        "max_degree + 1 colors cannot fail")  # pragma: no cover
