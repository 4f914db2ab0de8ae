"""Merge or compare benchmark records written by ``run.py --out``.

    python3 wfbench/compare.py a1.json a2.json            # medians of a*
    python3 wfbench/compare.py a1.json a2.json -- b1.json  # a* against b*

Records are grouped by workload and trace mode; each metric is reported as
the median over its records.  Records whose backends differ are refused: a
number from one backend says nothing about another.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


class BackendMismatch(ValueError):
    pass


def merge(records: list[dict]) -> dict[tuple[str, int], dict[str, tuple[float, str, int]]]:
    """Median, unit and record count of every metric, keyed by (workload,
    trace).  Raises BackendMismatch unless all records share one backend."""
    backends = {r["backend"] for r in records}
    if len(backends) > 1:
        raise BackendMismatch(f"records come from several backends: {sorted(backends)}")
    values: dict[tuple[str, int], dict[str, list]] = {}
    units: dict[str, str] = {}
    for r in records:
        group = values.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["metrics"].items():
            group.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return {key: {name: (statistics.median(v), units[name], len(v))
                  for name, v in group.items()}
            for key, group in values.items()}


def main(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        base_paths, new_paths = argv[:cut], argv[cut + 1:]
    else:
        base_paths, new_paths = argv, []
    if not base_paths:
        print(__doc__, file=sys.stderr)
        return 2
    base_recs = [json.loads(Path(p).read_text()) for p in base_paths]
    new_recs = [json.loads(Path(p).read_text()) for p in new_paths]
    try:
        merge(base_recs + new_recs)  # one backend across both sides
        base, new = merge(base_recs), merge(new_recs)
    except BackendMismatch as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 1
    for (workload, trace), metrics in sorted(base.items()):
        for name, (med, unit, count) in metrics.items():
            line = f"{workload:16s} {trace} {name:28s} {med:14.4f} {unit:6s} n={count}"
            other = new.get((workload, trace), {}).get(name)
            if other:
                ratio = other[0] / med if med else float("nan")
                line += f"  ->  {other[0]:14.4f} n={other[2]}  x{ratio:.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
