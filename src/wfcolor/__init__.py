"""wfcolor: fast vertex coloring built around a wave-function-collapse
style heuristic, with greedy baselines and a DIMACS benchmark harness."""
from .baselines import dsatur, iterated_greedy, rlf
from .coloring import Coloring, Verdict, validate
from .dimacs import (DimacsParseError, DimacsWarning, load_dimacs,
                     parse_dimacs, save_dimacs, write_dimacs)
from .exact import OracleLimitError, exact_chromatic
from .graph import Graph, crown_graph, random_gnp
from .wfc import RESTART, DomainState, SolveResult, solve

__all__ = [
    "BACKEND",
    "Coloring",
    "DimacsParseError",
    "DimacsWarning",
    "DomainState",
    "Graph",
    "OracleLimitError",
    "RESTART",
    "SolveResult",
    "Verdict",
    "crown_graph",
    "dsatur",
    "exact_chromatic",
    "iterated_greedy",
    "load_dimacs",
    "parse_dimacs",
    "random_gnp",
    "rlf",
    "save_dimacs",
    "solve",
    "validate",
    "write_dimacs",
]

__version__ = "0.1.0"

# the engine and the baselines run as plain Python over numpy; benchmark
# records carry this name
BACKEND = "python"
