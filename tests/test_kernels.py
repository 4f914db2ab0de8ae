"""Backend plumbing: the numba path and the pure-Python path must agree."""
import os
import subprocess
import sys

import numpy as np
import pytest

import wfcolor._kernels as _k
from wfcolor.graph import random_gnp
from wfcolor.wfc import DomainState, solve

needs_numba = pytest.mark.skipif(_k.BACKEND != "numba",
                                 reason="numba backend not active")


def test_backend_reports_a_known_value():
    assert _k.BACKEND in ("numba", "python")


def test_rng_stream_is_stable():
    state = _k.seeded_rng_state(123)
    stream = [int(_k.rng_next(state)) for _ in range(5)]
    state2 = _k.seeded_rng_state(123)
    assert [int(_k.rng_next(state2)) for _ in range(5)] == stream
    assert all(0 <= x <= 0xFFFFFFFF for x in stream)


def test_seed_zero_is_usable():
    state = _k.seeded_rng_state(0)
    assert int(state[0]) != 0
    assert int(_k.rng_next(state)) != 0


@needs_numba
def test_observe_pyfunc_matches_jit():
    for trial in range(30):
        g = random_gnp(10, 0.5, seed=trial)
        a = DomainState(g, 4, seed=trial)
        b = DomainState(g, 4, seed=trial)
        a.set_color(0, 1)
        b.set_color(0, 1)
        va = _k.observe(a.entropy, a.colors, a.degrees, False,
                        a.rng_state)
        vb = _k.observe.py_func(b.entropy, b.colors, b.degrees, False,
                                b.rng_state)
        assert va == vb


@needs_numba
def test_propagate_pyfunc_matches_jit():
    for trial in range(30):
        g = random_gnp(9, 0.6, seed=100 + trial)
        m = max(g.max_degree, 1)
        a = DomainState(g, m)
        b = DomainState(g, m)
        a.set_color(0, 1)
        b.set_color(0, 1)
        sa = _k.propagate(g.indptr, g.indices, a.avail, a.entropy, a.colors,
                          a.meta, a.stack, 0)
        sb = _k.propagate.py_func(g.indptr, g.indices, b.avail, b.entropy,
                                  b.colors, b.meta, b.stack, 0)
        assert sa == sb
        assert np.array_equal(a.colors, b.colors)
        assert np.array_equal(a.avail, b.avail)
        assert np.array_equal(a.entropy, b.entropy)


_CHILD = r"""
import json
import wfcolor as wf
from wfcolor._kernels import BACKEND
g = wf.random_gnp(25, 0.5, seed=3)
r = wf.solve(g)
d = wf.dsatur(g)
l = wf.rlf(g, seed=1)
i = wf.iterated_greedy(g)
print(json.dumps({
    "backend": BACKEND,
    "wfcc": [r.k, r.restarts, r.coloring.assignment.tolist()],
    "dsatur": d.coloring.assignment.tolist(),
    "rlf": l.coloring.assignment.tolist(),
    "ig": i.coloring.assignment.tolist(),
}))
"""


def _run_child(backend: str) -> dict:
    import json
    # the child imports the same wfcolor as this process, whether it came
    # from PYTHONPATH, pytest's pythonpath setting or an install
    src = os.path.dirname(os.path.dirname(_k.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, WFCOLOR_BACKEND=backend, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_env_flag_selects_python_backend():
    child = _run_child("python")
    assert child["backend"] == "python"


@needs_numba
def test_backends_produce_identical_results():
    py = _run_child("python")
    g = random_gnp(25, 0.5, seed=3)
    r = solve(g)
    assert py["wfcc"] == [r.k, r.restarts, r.coloring.assignment.tolist()]
    from wfcolor.baselines import dsatur, iterated_greedy, rlf
    assert py["dsatur"] == dsatur(g).coloring.assignment.tolist()
    assert py["rlf"] == rlf(g, seed=1).coloring.assignment.tolist()
    assert py["ig"] == iterated_greedy(g).coloring.assignment.tolist()
