"""Benchmark harness: run any subset of the colorers over DIMACS files and
generated instances, with repetition timing and CSV/Markdown reports."""
from __future__ import annotations

import csv
import io
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .baselines import (RLF_TIE_BREAKS, SATURATION_MODES, dsatur,
                        iterated_greedy, rlf)
from .coloring import validate
from .dimacs import load_dimacs
from .graph import Graph, barabasi_albert, crown_graph, random_gnp, star_graph
from .wfc import TIE_BREAKS, SolveConfig, SolveResult, solve

ALGORITHMS = ("wfcc", "ig", "dsatur", "rlf")
ALGORITHM_LABELS = {"wfcc": "WFC-C", "ig": "IG", "dsatur": "DSatur", "rlf": "RLF"}

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


@dataclass(frozen=True)
class RunConfig:
    """What to benchmark and how.

    generators take specs like "crown:8", "gnp:250,0.5", "star:1000" or
    "ba:1000,3" (the gnp and ba seed is the global seed).  timeout_ms is
    checked between repetitions: a running solve is never interrupted, but
    any single repetition exceeding it marks the whole row N/A, and
    remaining repetitions are skipped.
    """

    algorithms: tuple[str, ...] = ("wfcc",)
    instances: tuple[str, ...] = ()
    generators: tuple[str, ...] = ()
    reps: int = 100
    seed: int = 0
    timeout_ms: float = 60_000.0
    jobs: int = 1
    tie_break: str = "degree"
    saturation: str = "distinct"
    rlf_tie: str = "random"

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("select at least one algorithm")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; use one of {ALGORITHMS}")
        if not self.instances and not self.generators:
            raise ValueError("select at least one instance or generator")
        if self.reps < 1:
            raise ValueError("repetitions must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for name, value, allowed in (("tie_break", self.tie_break, TIE_BREAKS),
                                     ("saturation", self.saturation, SATURATION_MODES),
                                     ("rlf_tie", self.rlf_tie, RLF_TIE_BREAKS)):
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")


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


def resolve_instances(cfg: RunConfig) -> list[tuple[str, Graph]]:
    """Parse files and expand generator specs, in configuration order."""
    out: list[tuple[str, Graph]] = []
    for path in cfg.instances:
        p = Path(path)
        out.append((p.stem, load_dimacs(p)))
    for spec in cfg.generators:
        out.append(parse_generator_spec(spec, cfg.seed))
    return out


def run_algorithm(alg: str, g: Graph, *, seed: int = 0,
                  tie_break: str = "degree", saturation: str = "distinct",
                  rlf_tie: str = "random") -> SolveResult:
    """Dispatch one solve by algorithm name with the harness mode flags."""
    if alg == "wfcc":
        return solve(g, SolveConfig(tie_break=tie_break, seed=seed))
    if alg == "ig":
        return iterated_greedy(g, order="degree")
    if alg == "dsatur":
        return dsatur(g, saturation=saturation)
    if alg == "rlf":
        return rlf(g, seed=seed, tie_break=rlf_tie)
    raise ValueError(f"unknown algorithm {alg!r}; use one of {ALGORITHMS}")


def _bench_pair(name: str, g: Graph, alg: str, cfg: RunConfig,
                best_known: int | None) -> BenchRow:
    times_us: list[float] = []
    result: SolveResult | None = None
    timed_out = False
    # one untimed warm-up per pair so first-call costs never land in the
    # statistics; it still counts against the timeout
    for rep in range(cfg.reps + 1):
        t0 = time.perf_counter_ns()
        result = run_algorithm(alg, g, seed=cfg.seed,
                               tie_break=cfg.tie_break,
                               saturation=cfg.saturation, rlf_tie=cfg.rlf_tie)
        dt_us = (time.perf_counter_ns() - t0) / 1000.0
        verdict = validate(g, result.coloring)
        if not verdict.ok:
            raise BenchError(
                f"{alg} produced an invalid coloring on {name}: {verdict}")
        if rep > 0:
            times_us.append(dt_us)
        if dt_us > cfg.timeout_ms * 1000.0:
            timed_out = True
            break
    if timed_out:
        return BenchRow(instance=name, algorithm=alg, k=None,
                        best_known=best_known, reps=cfg.reps,
                        time_mean_us=None, time_median_us=None,
                        time_stddev_us=None, restarts=None, seed=cfg.seed)
    assert result is not None
    return BenchRow(
        instance=name,
        algorithm=alg,
        k=result.k,
        best_known=best_known,
        reps=cfg.reps,
        time_mean_us=statistics.fmean(times_us),
        time_median_us=statistics.median(times_us),
        time_stddev_us=statistics.pstdev(times_us),
        restarts=result.restarts if alg == "wfcc" else None,
        seed=cfg.seed,
    )


def _bench_pair_task(args) -> BenchRow:
    return _bench_pair(*args)


def run_bench(cfg: RunConfig,
              best_known: dict[str, int] | None = None) -> list[BenchRow]:
    """One BenchRow per (instance, algorithm) pair, in configuration order.

    Every solve output is validated before its timing counts; an invalid
    coloring aborts the offending row with BenchError.  With jobs > 1,
    pairs run on separate worker processes, all repetitions of a pair
    staying on one worker; use jobs=1 for publication-grade timing.
    """
    if best_known is None:
        best_known = default_best_known()
    instances = resolve_instances(cfg)
    tasks = [(name, g, alg, cfg, best_known.get(name))
             for name, g in instances for alg in cfg.algorithms]
    if cfg.jobs == 1:
        return [_bench_pair_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(_bench_pair_task, tasks))


# -- best-known table -------------------------------------------------------

def load_best_known(path) -> dict[str, int]:
    """Read an instance -> k* map from lines of ``<instance-name> <k*>``.
    Blank lines and ``#`` comments are skipped."""
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
        try:
            out[tokens[0]] = int(tokens[1])
        except ValueError:
            raise ValueError(f"line {line_no}: bad k* value {tokens[1]!r}") from None
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


def parse_csv(text: str) -> list[BenchRow]:
    """Inverse of render_csv (float fields at its 3-decimal precision)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER.split(","):
        raise ValueError("unexpected CSV header")

    def opt_int(s):
        return None if s == "NA" else int(s)

    def opt_float(s):
        return None if s == "NA" else float(s)

    return [BenchRow(instance=r[0], algorithm=r[1], k=opt_int(r[2]),
                     best_known=opt_int(r[3]), reps=int(r[4]),
                     time_mean_us=opt_float(r[5]), time_median_us=opt_float(r[6]),
                     time_stddev_us=opt_float(r[7]), restarts=opt_int(r[8]),
                     seed=int(r[9]))
            for r in reader]


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
        label = ALGORITHM_LABELS.get(a, a)
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


def render_report(rows: list[BenchRow], fmt: str) -> str:
    if fmt == "csv":
        return render_csv(rows)
    if fmt in ("md", "markdown"):
        return render_markdown(rows)
    raise ValueError(f"unknown report format {fmt!r}")


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
            lines.append(f"{name}: {ALGORITHM_LABELS[alg]} / WFC-C mean time = {ratio:.1f}x")
    return "\n".join(lines)
