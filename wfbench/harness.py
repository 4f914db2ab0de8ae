"""Closed-loop benchmark of wfcolor's public API, timed from outside.

One caller, no threads: a *round* solves every instance of a workload once,
and the next round starts only after the previous one has finished and its
outputs have been checked.  Two kinds of run share the instances:

* untraced (``trace=False``): timed rounds give the end-to-end metrics;
* traced (``trace=True``): every instance is driven through the layers one
  call at a time (ingest, state setup, selection, propagation, check and
  output, plus the DSatur and greedy baselines) for the per-layer metrics.

End-to-end times are scaled to the machine's idle speed by a calibration
loop timed before every round (see CAL_REF_MS); the unscaled times are
kept in the run's record.  Per-layer times are not scaled: their shares and
ratios come from one traced round each and need no correction.

The program under test receives only the generated instances; the workload
seed is an argument.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import wfcolor
from wfcolor import (DomainState, Graph, crown_graph, dsatur,
                     iterated_greedy, parse_dimacs, random_gnp, solve,
                     validate, write_dimacs)
from wfcolor.coloring import Coloring, format_coloring

# a round slower than this counts as failed; today's rounds take under 1 s
ROUND_LIMIT_S = 10.0
# setup_s is the median of this many cold set-ups (import, generation,
# DIMACS text, warm-up round): the run's own and, for the rest, one fresh
# interpreter each, so that every repetition pays the first-call costs
SETUP_REPS = 3
TAIL_BEYOND = 10
# On a shared virtual machine the CPU's speed drifts by up to 40% over
# minutes with other tenants' load (measured on a 2-vCPU Xeon VM: CPU time
# equalled wall time, so it was not run-queue wait, and parse, solve, write
# and generation all slowed alike).  So each round and set-up is preceded
# by a fixed calibration loop, and its time is scaled by
# CAL_REF_MS / (that loop's time).  CAL_REF_MS is about the loop's time
# between rounds on that VM when idle, so scaled times read as its idle
# milliseconds.  Over 20 s windows of one process, scaling cut the
# variation of the rounds' median from 7-10% to 2.5-3.4% (stdev/mean) on
# the three workloads.
CAL_REF_MS = 5.0
_CAL_GRID = np.ones((512, 512), dtype=np.uint8)
# metric names and units are declared once, in BENCHMARK.json
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


# -- workloads ----------------------------------------------------------------

def _star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _build_dense(seed: int, quick: bool):
    # propagation is over 80% of solve time on dense G(n, p); the crown graph
    # keeps the paper's 2-color claim inside colors_total
    if quick:
        return [("gnp30", random_gnp(30, 0.5, seed)), ("crown5", crown_graph(5))], None
    return [("gnp250", random_gnp(250, 0.5, seed)),
            ("gnp1000", random_gnp(1000, 0.5, seed + 1)),
            ("crown150", crown_graph(150))], None


def _build_sparse_hub(seed: int, quick: bool):
    # selection dominates: observe walks the whole minimum-entropy bucket,
    # and the star's n x max-degree domain matrix dominates peak memory.
    # Four small G(n, p) graphs rather than one large one: the solve time of
    # a single sparse G(n, p) varies by up to 40% between seeds, and the
    # round must cost about the same on every seed.
    if quick:
        return [("gnp60", random_gnp(60, 0.05, seed)), ("star20", _star(20))], None
    graphs = [(f"gnp1000.{i}", random_gnp(1000, 0.006, seed * 4 + i)) for i in range(4)]
    return graphs + [("star800", _star(800))], None


def _build_dimacs(seed: int, quick: bool):
    # ingest (parse and write) dominates a file-to-coloring round; the text
    # comes from another seed than the other workloads' graphs.  Sized so
    # that a run holds 40 rounds or more and the tail has 10 beyond it.
    g = random_gnp(30, 0.5, seed + 7) if quick else random_gnp(700, 0.5, seed + 7)
    return [("dimacs", g)], write_dimacs(g)


# name -> build(seed, quick): named graphs and, for the DIMACS pipeline, the
# text that each round parses
Builder = Callable[[int, bool], tuple[list[tuple[str, Graph]], str | None]]
WORKLOADS: dict[str, Builder] = {
    "dense": _build_dense,
    "sparse_hub": _build_sparse_hub,
    "dimacs_pipeline": _build_dimacs,
}


@dataclass
class Instances:
    graphs: list[tuple[str, Graph]]
    text: str | None
    gen_ms: float  # generation plus DIMACS text creation


def build(workload: Builder, seed: int, quick: bool) -> Instances:
    t0 = time.perf_counter_ns()
    graphs, text = workload(seed, quick)
    return Instances(graphs, text, (time.perf_counter_ns() - t0) / 1e6)


# -- one round and its checks -------------------------------------------------

@dataclass
class RoundOutput:
    colorings: list[Coloring]
    graphs: list[Graph]
    # DIMACS pipeline only: text written back from the parsed graph
    written: str | None = None


def run_round(inst: Instances) -> RoundOutput:
    """The timed work of one round.  With DIMACS text: parse, solve,
    validate, format, write.  Otherwise: solve every instance."""
    if inst.text is None:
        graphs = [g for _, g in inst.graphs]
        return RoundOutput([solve(g).coloring for g in graphs], graphs)
    g = parse_dimacs(inst.text)
    coloring = solve(g).coloring
    validate(g, coloring)
    format_coloring(coloring)
    return RoundOutput([coloring], [g], write_dimacs(g))


def check_round(inst: Instances, out: RoundOutput) -> str | None:
    """None when every output is right, else what was wrong."""
    for g, c in zip(out.graphs, out.colorings):
        if not c.total or not validate(g, c).ok:
            return "invalid or partial coloring"
    if inst.text is not None and out.written != inst.text:
        return "DIMACS round trip changed the text"
    return None


def digest(c: Coloring) -> str:
    return hashlib.sha256(c.assignment.tobytes()).hexdigest()[:16]


# -- traced driver ------------------------------------------------------------

class TraceRefused(RuntimeError):
    """The traced run met an output it must not report numbers for: the
    driver and solve() disagree, or the coloring is invalid."""


@dataclass
class Layers:
    """Per-layer busy time (ns) and call counts for one traced round."""

    ns: dict[str, int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def add(self, layer: str, ns: int) -> None:
        self.ns[layer] = self.ns.get(layer, 0) + ns
        self.calls[layer] = self.calls.get(layer, 0) + 1

    def ms(self, layer: str) -> float:
        return self.ns.get(layer, 0) / 1e6


def traced_solve(g: Graph, lay: Layers) -> tuple[Coloring, int]:
    """solve(g) in default mode, one DomainState call at a time, mirroring
    _kernels.wfc_attempt: seed the lowest-id maximum-degree vertex with
    color 1, propagate, then observe/collapse/propagate; restart with one
    more color on a dead end.  Returns the coloring and forced count."""
    clock = time.perf_counter_ns
    seed_v = int(np.argmax(g.degrees))
    m = max(g.max_degree, 1)
    while True:
        t0 = clock()
        st = DomainState(g, m)
        t1 = clock()
        lay.add("state", t1 - t0)
        st.set_color(seed_v, 1)
        ok = st.propagate(seed_v)
        lay.add("propagate", clock() - t1)
        while ok and st.colored_count < g.n:
            t0 = clock()
            v = st.observe()
            t1 = clock()
            lay.add("select", t1 - t0)
            if v < 0:
                ok = False
                break
            st.collapse(v)
            t2 = clock()
            ok = st.propagate(v)
            lay.add("collapse", t2 - t1)
            lay.add("propagate", clock() - t2)
        if ok:
            return Coloring(st.colors.copy()), st.forced_count
        m += 1


def _timed(fn, *args):
    t0 = time.perf_counter_ns()
    out = fn(*args)
    return out, time.perf_counter_ns() - t0


def traced_round(inst: Instances, driver_first: bool = True) -> tuple[Layers, int]:
    """Walk every layer for every instance.  Returns the layer totals and
    the summed forced-coloring count; raises TraceRefused when the driver
    and solve() disagree on any instance.  Callers alternate
    ``driver_first`` so that neither solve gets the warmer caches."""
    lay = Layers()
    forced = 0
    for name, g in inst.graphs:
        text, ns = _timed(write_dimacs, g)
        lay.add("write", ns)
        parsed, ns = _timed(parse_dimacs, text)
        lay.add("parse", ns)
        _, ns = _timed(Graph, parsed.n, parsed.indptr, parsed.indices)
        lay.add("check", ns)
        for step in ("driver", "solve") if driver_first else ("solve", "driver"):
            gc.collect()
            if step == "driver":
                (coloring, f), ns = _timed(traced_solve, g, lay)
                forced += f
            else:
                ref, ns = _timed(solve, g)
            lay.add(step, ns)
        if coloring.assignment.tobytes() != ref.coloring.assignment.tobytes():
            raise TraceRefused(f"traced driver and solve() differ on {name}")
        verdict, ns = _timed(validate, g, coloring)
        lay.add("validate", ns)
        if not verdict.ok:
            raise TraceRefused(f"solve() returned an invalid coloring on {name}")
        lay.add("format", _timed(format_coloring, coloring)[1])
        lay.add("dsatur", _timed(dsatur, g)[1])
        lay.add("ig", _timed(iterated_greedy, g)[1])
    return lay, forced


def layer_metrics(lay: Layers, forced: int, n_instances: int) -> dict[str, float]:
    attempts = lay.calls["state"]
    driver = lay.ms("driver")
    select_calls = lay.calls.get("select", 0)
    return {
        "ingest.parse_ms": lay.ms("parse"),
        "ingest.check_ms": lay.ms("check"),
        "ingest.write_ms": lay.ms("write"),
        "setup.state_ms": lay.ms("state"),
        "setup.attempts": attempts,
        "setup.useful_frac": n_instances / attempts,
        "select.ms": lay.ms("select"),
        "select.calls": select_calls,
        "select.us_per_call": lay.ms("select") * 1e3 / max(select_calls, 1),
        "select.share": lay.ms("select") / driver,
        "propagate.ms": lay.ms("propagate"),
        "propagate.calls": lay.calls["propagate"],
        "propagate.forced": forced,
        "collapse.ms": lay.ms("collapse"),
        "propagate.share": lay.ms("propagate") / driver,
        "check.validate_ms": lay.ms("validate"),
        "check.format_ms": lay.ms("format"),
        "baselines.dsatur_ms": lay.ms("dsatur"),
        "baselines.ig_ms": lay.ms("ig"),
        "baselines.wfcc_over_dsatur": lay.ms("solve") / lay.ms("dsatur"),
        "baselines.wfcc_over_ig": lay.ms("solve") / lay.ms("ig"),
        "trace.overhead_frac": driver / lay.ms("solve") - 1.0,
    }


# -- metric helpers -----------------------------------------------------------

def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, int]:
    """The highest sample with at least ``beyond`` samples above it, and the
    whole-number percentile it stands at.  With too few samples, the largest
    one and percentile 100."""
    s = sorted(samples)
    n = len(s)
    if n <= beyond:
        return s[-1], 100
    return s[n - 1 - beyond], (100 * (n - beyond)) // n


def environment(seed: int) -> dict:
    """Stamp recorded with every result; results are comparable only when
    the backends agree."""
    return {
        "backend": wfcolor.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def peak_mb(inst: Instances) -> float:
    """tracemalloc peak of one round, in MB.  Slow: tracing every
    allocation costs ~15x on the Python backend, so never timed."""
    gc.collect()
    tracemalloc.start()
    try:
        run_round(inst)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def calibrate() -> float:
    """ms for a fixed loop of the work the rounds are made of: scalar reads
    of a 2-D uint8 array, as propagate does, and building a list of int
    pairs, as parse does.  Of the loops tried, this one's time tracked the
    rounds' slowdowns most closely on all three workloads."""
    t0 = time.perf_counter_ns()
    hits = 0
    for i in range(12000):
        if _CAL_GRID[(i * 7919) & 511, (i * 104729) & 511] != 0:
            hits += 1
    hits += len([(i, i + 1) for i in range(20000)])
    return (time.perf_counter_ns() - t0) / 1e6


# -- runs ---------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    info: dict


@dataclass
class Setup:
    inst: Instances
    seconds: float  # import, generation and warm-up round
    scaled_s: float  # the same, scaled by the calibration loop before it


def setup(workload: Builder, seed: int, quick: bool, import_s: float) -> Setup:
    """Build the instances and warm up with one checked round; ``import_s``
    is the time the caller took to import wfcolor."""
    cal = calibrate()
    t0 = time.perf_counter()
    inst = build(workload, seed, quick)
    warm = run_round(inst)
    seconds = import_s + time.perf_counter() - t0
    problem = check_round(inst, warm)
    if problem:
        raise RuntimeError(f"warm-up round failed: {problem}")
    return Setup(inst, seconds, seconds * CAL_REF_MS / cal)


def fresh_setup(workload_name: str, seed: int, quick: bool) -> tuple[float, float]:
    """Scaled and raw seconds of one set-up in a new interpreter, which
    ``run.py --setup-only`` times and prints."""
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
           "--workload", workload_name, "--seed", str(seed), "--seconds", "0",
           "--setup-only"] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["setup_s"], out["raw_setup_s"]


@dataclass
class Loop:
    times: list[float] = field(default_factory=list)  # good rounds, ms
    cal_ms: list[float] = field(default_factory=list)  # calibration before each
    failed: int = 0
    correct: bool = True  # every output checked was right
    first: RoundOutput | None = None  # the first good round's output


def measure(inst: Instances, seconds: float) -> Loop:
    """Closed loop of checked rounds for ``seconds``, each one preceded by
    a calibration loop."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while not loop.times and not loop.failed or time.perf_counter() < deadline:
        gc.collect()
        cal = calibrate()
        t0 = time.perf_counter_ns()
        try:
            out = run_round(inst)
        except Exception:  # a raise fails this round; the loop keeps running
            traceback.print_exc()
            loop.failed += 1
            continue
        ms = (time.perf_counter_ns() - t0) / 1e6
        problem = check_round(inst, out)
        if problem:
            loop.correct = False
            loop.failed += 1
        elif ms > ROUND_LIMIT_S * 1e3:
            loop.failed += 1
        else:
            loop.times.append(ms)
            loop.cal_ms.append(cal)
            loop.first = loop.first or out
    return loop


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        import_s: float = 0.0, quick: bool = False) -> Result:
    st = setup(WORKLOADS[workload_name], seed, quick, import_s)
    inst = st.inst
    info = {"workload": workload_name, "trace": int(trace), **environment(seed)}
    if trace:
        return _run_traced(inst, seconds, info)
    reps = [(st.scaled_s, st.seconds)] + [
        fresh_setup(workload_name, seed, quick) for _ in range(SETUP_REPS - 1)]
    loop = measure(inst, seconds)
    attempted = len(loop.times) + loop.failed
    metrics = {"ops_ok_frac": len(loop.times) / attempted,
               "setup_s": statistics.median(r[0] for r in reps)}
    info.update(cal_ms=statistics.median(loop.cal_ms or [calibrate()]),
                raw={"setup_s": statistics.median(r[1] for r in reps)})
    if loop.times:
        scaled = [t * CAL_REF_MS / c for t, c in zip(loop.times, loop.cal_ms)]
        tail_ms, pct = tail(scaled)
        metrics.update({
            "round_ms.p50": statistics.median(scaled),
            "round_ms.tail": tail_ms,
            "colors_total": sum(c.k for c in loop.first.colorings),
            "peak_mb": peak_mb(inst),
        })
        info["raw"].update({"round_ms.p50": statistics.median(loop.times),
                            "round_ms.tail": tail(loop.times)[0]})
        info.update(rounds=len(loop.times), tail_percentile=pct,
                    digests={name: digest(c) for (name, _), c
                             in zip(inst.graphs, loop.first.colorings)})
    return Result(loop.correct, attempted, loop.failed,
                  {k: (v, UNITS[k]) for k, v in metrics.items()}, info)


def _run_traced(inst: Instances, seconds: float, info: dict) -> Result:
    rounds: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        lay, forced = traced_round(inst, driver_first=len(rounds) % 2 == 0)
        rounds.append(layer_metrics(lay, forced, len(inst.graphs)))
    metrics = {"ingest.gen_ms": inst.gen_ms}
    for key in rounds[0]:
        metrics[key] = statistics.median(r[key] for r in rounds)
    info.update(rounds=len(rounds))
    return Result(True, len(rounds), 0,
                  {k: (v, UNITS[k]) for k, v in metrics.items()}, info)
