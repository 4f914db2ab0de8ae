"""Self-tests of the benchmark harness on tiny instances.

    python -m pytest wfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
from wfcolor import Graph, crown_graph, random_gnp, solve  # noqa: E402
from wfcolor.coloring import Coloring  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    res = harness.run(workload, seed=3, seconds=0.05, trace=trace, quick=True)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: u for k, (_, u) in res.metrics.items()} == \
           {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v, (int, float)) for v, _ in res.metrics.values())
    assert res.correct and res.failed == 0 and res.attempted >= 1
    assert res.info["backend"] and res.info["seed"] == 3


def test_workload_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def _cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("g", [
    random_gnp(40, 0.3, 1), random_gnp(80, 0.05, 2), crown_graph(6),
    _cycle(5),  # odd cycle: the budget of max degree fails, one restart
    Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    Graph.from_edges(3, []),
])
def test_traced_driver_matches_solve(g):
    lay = harness.Layers()
    coloring, forced = harness.traced_solve(g, lay)
    ref = solve(g)
    assert coloring.assignment.tobytes() == ref.coloring.assignment.tobytes()
    assert forced == ref.forced_colorings
    assert lay.calls["state"] == ref.restarts + 1


def test_driver_mismatch_fails_the_traced_run(monkeypatch):
    def relabelled(g):
        r = solve(g)
        return type(r)(coloring=Coloring(r.coloring.assignment[::-1].copy()), k=r.k)

    monkeypatch.setattr(harness, "solve", relabelled)
    inst = harness.build(harness.WORKLOADS["sparse_hub"], 1, quick=True)
    with pytest.raises(harness.TraceRefused):
        harness.traced_round(inst)


def test_injected_invalid_coloring_counts_as_failure(monkeypatch):
    def one_color(g):
        r = solve(g)
        return type(r)(coloring=Coloring(np.ones(g.n, dtype=np.int32)), k=1)

    inst = harness.build(harness.WORKLOADS["dense"], 1, quick=True)
    monkeypatch.setattr(harness, "solve", one_color)
    loop = harness.measure(inst, 0.05)
    assert not loop.correct and not loop.times and loop.failed >= 1


def test_changed_round_trip_counts_as_failure():
    inst = harness.build(harness.WORKLOADS["dimacs_pipeline"], 1, quick=True)
    inst.text = "c not written back\n" + inst.text
    loop = harness.measure(inst, 0.05)
    assert not loop.times and loop.failed >= 1 and not loop.correct


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert harness.tail(samples) == (30.0, 75)
    assert harness.tail(samples[:5]) == (5.0, 100)


def _record(backend, value):
    return {"backend": backend, "workload": "dense", "trace": 0,
            "metrics": {"round_ms.p50": {"value": value, "unit": "ms"}}}


def test_merge_refuses_mixed_backends():
    merged = compare.merge([_record("python", 1.0), _record("python", 3.0),
                            _record("python", 2.0)])
    assert merged[("dense", 0)]["round_ms.p50"] == (2.0, "ms", 3)
    with pytest.raises(compare.BackendMismatch):
        compare.merge([_record("python", 1.0), _record("numba", 1.0)])


def test_record_round_trips_through_compare(tmp_path):
    out = tmp_path / "rec.json"
    subprocess.run([sys.executable, str(ROOT / "wfbench" / "run.py"),
                    "--workload", "dense", "--seed", "2", "--seconds", "0.05",
                    "--quick", "--out", str(out)], check=True, cwd=ROOT,
                   capture_output=True, timeout=120)
    rec = json.loads(out.read_text())
    assert {"backend", "python", "numpy", "nproc", "seed"} <= rec.keys()
    other = dict(rec, backend="numba")
    (tmp_path / "other.json").write_text(json.dumps(other))
    assert compare.main([str(out), "--", str(out)]) == 0
    assert compare.main([str(out), "--", str(tmp_path / "other.json")]) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "wfbench", tmp_path / "wfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "wfbench/run.py", "--workload", "dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
