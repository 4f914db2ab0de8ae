"""Run one workload of the wfcolor benchmark and print its metrics.

    python3 wfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` (nothing is installed).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment, the tail
percentile, the round count, the unscaled times, the calibration time and a
digest of each coloring.  ``--out PATH`` also writes that record with the
metrics, for ``wfbench/compare.py``.  ``--setup-only`` times one set-up and
prints its seconds; an untraced run calls it for its repeated set-ups.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny instances, for a smoke test of the harness")
    ap.add_argument("--out", type=Path, help="also write the record here")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print its seconds as JSON")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wfcolor" / "__init__.py").is_file():
        print(f"wfbench: no wfcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import wfcolor
    import_s = time.perf_counter() - t0
    if not Path(wfcolor.__file__).resolve().is_relative_to(SRC):
        print(f"wfbench: imported wfcolor from {wfcolor.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness
    if args.workload not in harness.WORKLOADS:
        print(f"wfbench: unknown workload {args.workload!r}; "
              f"use one of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        st = harness.setup(harness.WORKLOADS[args.workload], args.seed,
                           args.quick, import_s)
        print(json.dumps({"setup_s": st.scaled_s, "raw_setup_s": st.seconds}))
        return 0
    try:
        res = harness.run(args.workload, args.seed, args.seconds,
                          bool(args.trace), import_s=import_s, quick=args.quick)
    except harness.TraceRefused as exc:
        print(f"wfbench: traced run refused: {exc}", file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()}
    for k, (v, u) in res.metrics.items():
        print(f"{k:28s} {v:14.4f} {u}")
    record = {**res.info, "metrics": metrics}
    print(json.dumps(record, sort_keys=True))
    if args.out:
        args.out.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
