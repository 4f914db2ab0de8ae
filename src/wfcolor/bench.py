"""Benchmark harness: time named colorers over DIMACS files and generated
instances, validate every output, and report CSV or Markdown rows.

SOLVERS is the one table of what can run.  A name fixes a solver and its
settings, so one run can set variants side by side: wfcc-random is the
collapse solver with seeded random ties, dsatur-count counts colored
neighbours instead of distinct colors, and rlf-lowest-id breaks RLF's
ties by vertex id.
"""
from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .baselines import dsatur, iterated_greedy, rlf
from .coloring import validate
from .dimacs import load_dimacs
from .graph import Graph, barabasi_albert, crown_graph, random_gnp, star_graph
from .wfc import SolveResult, solve


class Solver(NamedTuple):
    label: str  # the Markdown and speed-ratio name
    run: Callable[[Graph, int], SolveResult]  # run(g, seed)


# each run looks its function up when called, so tests can substitute one
SOLVERS = {
    "wfcc": Solver("WFC-C", lambda g, seed: solve(g, seed=seed)),
    "wfcc-random": Solver("WFC-C random", lambda g, seed: solve(
        g, tie_break="random", seed=seed)),
    "ig": Solver("IG", lambda g, seed: iterated_greedy(g)),
    "dsatur": Solver("DSatur", lambda g, seed: dsatur(g)),
    "dsatur-count": Solver("DSatur count", lambda g, seed: dsatur(
        g, saturation="count")),
    "rlf": Solver("RLF", lambda g, seed: rlf(g, seed=seed)),
    "rlf-lowest-id": Solver("RLF lowest-id", lambda g, seed: rlf(
        g, tie_break="lowest-id")),
}

GENERATORS = "crown:<n>, gnp:<n>,<p>, star:<n> or ba:<n>,<k>"

CSV_HEADER = ("instance,algorithm,k,k_best_known,reps,time_mean_us,"
              "time_median_us,time_stddev_us,restarts,seed")


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class BenchRow:
    """One (instance, algorithm) aggregate.  k and the time fields are None
    when the run hit the timeout; restarts is None for algorithms without a
    restart loop.  Times are microseconds over solve calls only (parsing and
    generation are excluded)."""

    instance: str
    algorithm: str
    k: int | None
    best_known: int | None
    reps: int
    time_mean_us: float | None
    time_median_us: float | None
    time_stddev_us: float | None
    restarts: int | None
    seed: int


def parse_generator_spec(spec: str, seed: int) -> tuple[str, Graph]:
    """"crown:<n>", "gnp:<n>,<p>", "star:<n>" (n leaves) or "ba:<n>,<k>"
    (Barabasi-Albert) to a (name, graph) pair.  gnp and ba draw from seed."""
    kind, _, args = spec.partition(":")
    try:
        if kind == "crown":
            n = int(args)
            return f"crown_{n}", crown_graph(n)
        if kind == "star":
            n = int(args)
            return f"star_{n}", star_graph(n)
        if kind == "gnp":
            n_s, p_s = args.split(",")
            n, p = int(n_s), float(p_s)
            return f"gnp_{n}_{p:g}", random_gnp(n, p, seed)
        if kind == "ba":
            n_s, k_s = args.split(",")
            n, k = int(n_s), int(k_s)
            return f"ba_{n}_{k}", barabasi_albert(n, k, seed)
    except ValueError as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator {kind!r}; use {GENERATORS}")


def _bench_pair(name: str, g: Graph, alg: str, reps: int, seed: int,
                timeout_ms: float, best_known: int | None) -> BenchRow:
    run = SOLVERS[alg].run
    times_us: list[float] = []
    result: SolveResult | None = None
    timed_out = False
    # one untimed warm-up per pair so first-call costs never land in the
    # statistics; it still counts against the timeout
    for rep in range(reps + 1):
        t0 = time.perf_counter_ns()
        result = run(g, seed)
        dt_us = (time.perf_counter_ns() - t0) / 1000.0
        verdict = validate(g, result.coloring)
        if not verdict.ok:
            raise BenchError(
                f"{alg} produced an invalid coloring on {name}: {verdict}")
        if rep > 0:
            times_us.append(dt_us)
        if dt_us > timeout_ms * 1000.0:
            timed_out = True
            break
    if timed_out:
        return BenchRow(instance=name, algorithm=alg, k=None,
                        best_known=best_known, reps=reps,
                        time_mean_us=None, time_median_us=None,
                        time_stddev_us=None, restarts=None, seed=seed)
    assert result is not None
    return BenchRow(
        instance=name,
        algorithm=alg,
        k=result.k,
        best_known=best_known,
        reps=reps,
        time_mean_us=statistics.fmean(times_us),
        time_median_us=statistics.median(times_us),
        time_stddev_us=statistics.pstdev(times_us),
        # only solve reports a final budget, so only its rows have restarts
        restarts=result.restarts if result.final_m is not None else None,
        seed=seed,
    )


def _check_unique(kind: str, names: list[str]) -> None:
    # reports key rows by (instance, algorithm): a repeated name would
    # silently hide a row
    repeated = sorted({x for x in names if names.count(x) > 1})
    if repeated:
        raise ValueError(f"{kind} named more than once: {', '.join(repeated)}")


def run_bench(algorithms: Sequence[str], instances: Sequence[str] = (),
              generators: Sequence[str] = (), reps: int = 100, seed: int = 0,
              timeout_ms: float = 60_000.0,
              best_known: dict[str, int] | None = None) -> list[BenchRow]:
    """One BenchRow per (instance, algorithm) pair: DIMACS files (named by
    their stem), then generator specs, each with algorithms in the order
    given.

    algorithms are SOLVERS names.  generators take specs like "crown:8",
    "gnp:250,0.5", "star:1000" or "ba:1000,3" (gnp and ba draw from seed).
    timeout_ms is checked between repetitions: a running solve is never
    interrupted, but any single repetition exceeding it marks the whole
    row N/A, and remaining repetitions are skipped.  best_known maps
    instance names to k* (default: the bundled table).

    Bad arguments, and a repeated algorithm or instance name, raise
    ValueError before any solve runs.  Every solve output is validated
    before its timing counts; an invalid coloring aborts with BenchError.
    Pairs run one after another in this process, so no two timings
    overlap.
    """
    algorithms = list(algorithms)
    if not algorithms:
        raise ValueError("select at least one algorithm")
    for a in algorithms:
        if a not in SOLVERS:
            raise ValueError(f"unknown algorithm {a!r}; use one of {tuple(SOLVERS)}")
    _check_unique("algorithm", algorithms)
    if not instances and not generators:
        raise ValueError("select at least one instance or generator")
    if reps < 1:
        raise ValueError("repetitions must be >= 1")
    if not timeout_ms > 0:  # also rejects NaN, which no time exceeds
        raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed}")
    graphs = [(Path(p).stem, load_dimacs(p)) for p in instances]
    graphs += [parse_generator_spec(spec, seed) for spec in generators]
    _check_unique("instance", [name for name, _ in graphs])
    if best_known is None:
        best_known = default_best_known()
    return [_bench_pair(name, g, alg, reps, seed, timeout_ms,
                        best_known.get(name))
            for name, g in graphs for alg in algorithms]


# -- best-known table -------------------------------------------------------

def load_best_known(path) -> dict[str, int]:
    """Read an instance -> k* map from lines of ``<instance-name> <k*>``.
    Blank lines and ``#`` comments are skipped; a repeated name or a k*
    below 1 raises ValueError naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_best_known(fh.read())


def parse_best_known(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ValueError(
                f"line {line_no}: expected '<instance-name> <k*>', got {raw!r}")
        name, value = tokens
        try:
            k = int(value)
        except ValueError:
            raise ValueError(f"line {line_no}: bad k* value {value!r}") from None
        if k < 1:
            raise ValueError(f"line {line_no}: k* must be >= 1, got {k}")
        if name in out:
            raise ValueError(f"line {line_no}: {name!r} listed twice")
        out[name] = k
    return out


def default_best_known() -> dict[str, int]:
    """The bundled k* table for the standard DIMACS instances."""
    text = resources.files("wfcolor").joinpath("data/best_known.txt").read_text()
    return parse_best_known(text)


# -- reports ----------------------------------------------------------------

def _fmt(value, decimals: int = 3) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.{decimals}f}"
    return str(value)


def render_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow([
            r.instance, r.algorithm, _fmt(r.k), _fmt(r.best_known), r.reps,
            _fmt(r.time_mean_us), _fmt(r.time_median_us),
            _fmt(r.time_stddev_us), _fmt(r.restarts), r.seed,
        ])
    return buf.getvalue()


def render_markdown(rows: list[BenchRow]) -> str:
    """One table row per instance with a (k, time) column pair per algorithm."""
    algs: list[str] = []
    for r in rows:
        if r.algorithm not in algs:
            algs.append(r.algorithm)
    by_key = {(r.instance, r.algorithm): r for r in rows}
    instances: list[str] = []
    for r in rows:
        if r.instance not in instances:
            instances.append(r.instance)
    header = ["Instance (k*)"]
    for a in algs:
        label = SOLVERS[a].label
        header += [f"{label} k", f"{label} time (us)"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for name in instances:
        some = next(r for r in rows if r.instance == name)
        cell = f"{name} ({some.best_known})" if some.best_known is not None else name
        cells = [cell]
        for a in algs:
            r = by_key.get((name, a))
            if r is None:
                cells += ["N/A", "N/A"]
            else:
                cells += [_fmt(r.k).replace("NA", "N/A"),
                          _fmt(r.time_mean_us).replace("NA", "N/A")]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def speedup_summary(rows: list[BenchRow]) -> str:
    """Informational mean-time ratios of every algorithm against wfcc."""
    lines = []
    by_inst: dict[str, dict[str, BenchRow]] = {}
    for r in rows:
        by_inst.setdefault(r.instance, {})[r.algorithm] = r
    for name, per_alg in by_inst.items():
        base = per_alg.get("wfcc")
        if base is None or base.time_mean_us is None:
            continue
        for alg, r in per_alg.items():
            if alg == "wfcc" or r.time_mean_us is None:
                continue
            ratio = r.time_mean_us / base.time_mean_us
            lines.append(f"{name}: {SOLVERS[alg].label} / WFC-C mean time = {ratio:.1f}x")
    return "\n".join(lines)
