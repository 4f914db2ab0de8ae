"""Command-line entry points: ``bench``, ``color``, and ``validate``."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (GENERATORS, SOLVERS, BenchError, load_best_known,
                    render_csv, render_markdown, run_bench, speedup_summary)
from .coloring import format_coloring, parse_coloring, validate
from .dimacs import load_dimacs, read_text
from .graph import _check_seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfcolor",
        description="Vertex coloring toolkit and DIMACS benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="time colorers over instances")
    b.add_argument("--alg", default="wfcc",
                   help=f"comma-separated subset of {','.join(SOLVERS)}")
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

    c = sub.add_parser("color", help="solve one instance and print/save the coloring")
    c.add_argument("--alg", choices=SOLVERS, required=True)
    c.add_argument("--input", required=True, metavar="PATH")
    c.add_argument("--out", metavar="PATH",
                   help="write '<1-based vertex> <color>' lines here")
    c.add_argument("--seed", type=int, default=0)

    v = sub.add_parser("validate", help="check a coloring file against a graph")
    v.add_argument("--input", required=True, metavar="PATH")
    v.add_argument("--coloring", required=True, metavar="PATH")
    return parser


def _cmd_bench(args) -> int:
    best = load_best_known(args.best_known) if args.best_known else None
    rows = run_bench([a.strip() for a in args.alg.split(",") if a.strip()],
                     args.input, args.gen, reps=args.reps, seed=args.seed,
                     timeout_ms=args.timeout_ms, best_known=best)
    render = render_markdown if args.format == "md" else render_csv
    report = render(rows)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    summary = speedup_summary(rows)
    if summary:
        print(summary, file=sys.stderr)
    return 0


def _cmd_color(args) -> int:
    _check_seed(args.seed)  # as bench does: some solvers would ignore it
    g = load_dimacs(args.input)
    result = SOLVERS[args.alg].run(g, args.seed)
    text = format_coloring(result.coloring)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(f"k = {result.k}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    g = load_dimacs(args.input)
    coloring = parse_coloring(read_text(args.coloring), g.n)
    verdict = validate(g, coloring)
    print(verdict)
    return 0 if verdict.ok else 1


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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
