"""Command-line entry points: ``bench``, ``color``, and ``validate``."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baselines import RLF_TIE_BREAKS, SATURATION_MODES
from .bench import (ALGORITHMS, GENERATORS, BenchError, RunConfig,
                    load_best_known, render_report, run_algorithm, run_bench,
                    speedup_summary)
from .coloring import format_coloring, parse_coloring, validate
from .dimacs import load_dimacs
from .wfc import TIE_BREAKS


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tie-break", choices=TIE_BREAKS, default="degree",
                   help="observe() tie-break for wfcc")
    p.add_argument("--saturation", choices=SATURATION_MODES,
                   default="distinct", help="dsatur saturation rule")
    p.add_argument("--rlf-tie", choices=RLF_TIE_BREAKS,
                   default="random", help="rlf tie-break rule")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfcolor",
        description="Vertex coloring toolkit and DIMACS benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="time colorers over instances")
    b.add_argument("--alg", default="wfcc",
                   help=f"comma-separated subset of {','.join(ALGORITHMS)}")
    b.add_argument("--input", nargs="*", default=[], metavar="PATH",
                   help="DIMACS .col files")
    b.add_argument("--gen", action="append", default=[], metavar="SPEC",
                   help=f"generated instance: {GENERATORS} (repeatable)")
    b.add_argument("--reps", type=int, default=100)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--timeout-ms", type=float, default=60_000.0,
                   help="per-repetition timeout; an over-budget run marks the row N/A")
    b.add_argument("--format", choices=("csv", "md"), default="csv")
    b.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    b.add_argument("--best-known", metavar="PATH",
                   help="instance -> k* file (defaults to the bundled table)")
    b.add_argument("--speedups", action="store_true",
                   help="also print mean-time ratios against wfcc")
    _add_mode_flags(b)

    c = sub.add_parser("color", help="solve one instance and print/save the coloring")
    c.add_argument("--alg", choices=ALGORITHMS, required=True)
    c.add_argument("--input", required=True, metavar="PATH")
    c.add_argument("--out", metavar="PATH",
                   help="write '<1-based vertex> <color>' lines here")
    c.add_argument("--seed", type=int, default=0)
    _add_mode_flags(c)

    v = sub.add_parser("validate", help="check a coloring file against a graph")
    v.add_argument("--input", required=True, metavar="PATH")
    v.add_argument("--coloring", required=True, metavar="PATH")
    return parser


def _cmd_bench(args) -> int:
    cfg = RunConfig(
        algorithms=tuple(a.strip() for a in args.alg.split(",") if a.strip()),
        instances=tuple(args.input),
        generators=tuple(args.gen),
        reps=args.reps,
        seed=args.seed,
        timeout_ms=args.timeout_ms,
        tie_break=args.tie_break,
        saturation=args.saturation,
        rlf_tie=args.rlf_tie,
    )
    best = load_best_known(args.best_known) if args.best_known else None
    rows = run_bench(cfg, best_known=best)
    report = render_report(rows, args.format)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    if args.speedups:
        summary = speedup_summary(rows)
        if summary:
            print(summary, file=sys.stderr)
    return 0


def _cmd_color(args) -> int:
    g = load_dimacs(args.input)
    result = run_algorithm(args.alg, g, seed=args.seed,
                           tie_break=args.tie_break,
                           saturation=args.saturation, rlf_tie=args.rlf_tie)
    text = format_coloring(result.coloring)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(f"k = {result.k}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    g = load_dimacs(args.input)
    with open(args.coloring, "r", encoding="utf-8") as fh:
        coloring = parse_coloring(fh.read(), g.n)
    verdict = validate(g, coloring)
    if verdict.ok:
        print("VALID")
        return 0
    if verdict.uncolored is not None:
        print(f"INVALID: vertex {verdict.uncolored + 1} is uncolored")
    else:
        u, w = verdict.conflict
        print(f"INVALID: edge ({u + 1}, {w + 1}) has matching colors")
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "color":
            return _cmd_color(args)
        return _cmd_validate(args)
    except (OSError, ValueError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
