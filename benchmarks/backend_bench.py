"""Compare the numba-JIT kernel path against the pure-Python fallback.

Runs each colorer on the same generated instance under both backends (each
in a fresh interpreter so the env flag takes effect) and prints mean solve
times side by side:

    python benchmarks/backend_bench.py --n 250 --p 0.5 --reps 20

If a requested backend did not run (numba not installed), it prints a note
and exits 1 without a table.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ALGS = ("wfcc", "ig", "dsatur", "rlf")


def worker(n: int, p: float, seed: int, reps: int) -> None:
    import wfcolor as wf
    from wfcolor.baselines import dsatur, iterated_greedy, rlf
    from wfcolor.wfc import solve

    g = wf.random_gnp(n, p, seed)
    runners = {
        "wfcc": lambda: solve(g),
        "ig": lambda: iterated_greedy(g),
        "dsatur": lambda: dsatur(g),
        "rlf": lambda: rlf(g, seed=seed),
    }
    means = {}
    for name, fn in runners.items():
        fn()  # warm-up: JIT compile / cache load
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            fn()
            times.append((time.perf_counter_ns() - t0) / 1000.0)
        means[name] = sum(times) / len(times)
    print(json.dumps({"backend": wf.BACKEND, "means_us": means}))


def run_backend(backend: str, args) -> dict:
    env = dict(os.environ, WFCOLOR_BACKEND=backend)
    cmd = [sys.executable, __file__, "--worker", "--n", str(args.n),
           "--p", str(args.p), "--seed", str(args.seed), "--reps", str(args.reps)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=250)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.n, args.p, args.seed, args.reps)
        return 0

    results = {b: run_backend(b, args) for b in ("numba", "python")}
    missing = [b for b, r in results.items() if r["backend"] != b]
    for b in missing:
        print(f"note: requested {b}, ran {results[b]['backend']} "
              f"(numba missing?); no comparison to report", file=sys.stderr)
    if missing:
        return 1
    print(f"instance: gnp(n={args.n}, p={args.p}, seed={args.seed}), "
          f"{args.reps} reps per algorithm\n")
    print(f"{'algorithm':<10} {'numba (us)':>14} {'python (us)':>14} {'speedup':>9}")
    for alg in ALGS:
        jit = results["numba"]["means_us"][alg]
        py = results["python"]["means_us"][alg]
        print(f"{alg:<10} {jit:>14.1f} {py:>14.1f} {py / jit:>8.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
